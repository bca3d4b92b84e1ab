"""Log-barrier interior-point solver for linear + second-order cone programs.

This module is the from-scratch replacement for the commercial cone solver
(CPLEX) used in the paper.  It implements the classic two-phase barrier
method described in Boyd & Vandenberghe, *Convex Optimization*, chapter 11:

* **Phase I** finds a strictly feasible point by minimising a single scalar
  infeasibility ``t`` that relaxes every inequality, with hyperbolic
  constraints handled in their second-order cone form (which is jointly
  convex in the original variables and ``t``).
* **Phase II** minimises ``t_barrier · cᵀx + φ(x)`` by damped Newton steps for
  a geometrically increasing barrier parameter ``t_barrier``, where ``φ`` is
  the sum of the logarithmic barriers of all constraints.

Barrier terms used (all standard self-concordant barriers):

* linear ``G·x ≤ h``:            ``−Σ log(h_i − g_iᵀx)``
* hyperbolic ``p(x)·q(x) ≥ w``:  ``−log(p·q − w)`` on the branch ``p, q > 0``
* SOC ``‖u(x)‖ ≤ v(x)``:         ``−log(v² − ‖u‖²)`` on the branch ``v > 0``

Each family is evaluated as a *vectorised block* (one stacked matrix per
family, SOC cones batched by norm dimension) so that slack checks, barrier
values and the Newton system assembly are BLAS calls rather than Python
loops over individual constraints.

Equality constraints are eliminated up front by restricting the search to an
affine subspace ``x = x_p + N·z`` where ``N`` spans the null space of the
equality matrix.

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

* equalities are eliminated **blockwise** (one SVD per application instead
  of one on the full matrix), keeping the null-space basis block diagonal so
  the reduced problem inherits the partition;
* each Newton step factorises the per-application diagonal blocks
  independently (Cholesky) and folds the coupling rows in through the Schur
  complement of the arrow system (a matrix of coupling-row dimension, typically the number
  of shared processors and memories);
* phase I, whose relaxation variable ``t`` touches every constraint, is
  solved with the same machinery by treating ``t`` as a one-column *border*
  of the arrow.

Every solve runs this one pipeline.  A program compiled without a block
structure is solved as a single block, so term building, equality
elimination, phase I, warm-rung selection and the Newton loop each exist
once.  Only the *kernel* that computes a Newton direction differs, and the
solver picks it from the input, never from an option:

* :class:`_StructuredWorkspace` (block factorisations + Schur complement)
  for problems with two or more blocks and narrow coupling;
* :class:`_DenseWorkspace` (one dense assembly and solve) otherwise — on a
  single small block it is faster than the arrow machinery.  It is also the
  structured kernel's per-iteration fallback when a block factorisation
  fails.

Both kernels see the same barrier terms, so they return the same optimum to
solver tolerance.  The equality-elimination result is cached on the
compiled problem
(:attr:`~repro.solver.problem.CompiledProblem.elimination_cache`), so
warm-started parametric re-solves pay for the factorisations exactly once.

Sparse backend
--------------

The structured path is built to scale to hundreds of applications:

* the compiled constraint matrices arrive in CSR form
  (:attr:`~repro.solver.problem.CompiledProblem.G_sparse`) and every
  per-block reduction slices them without densifying the full matrix;
* blockwise equality elimination uses a pivoted QR factorisation per block
  (no dense SVD), and the null-space basis is kept *per block* — lifting,
  projecting and warm-starting are blockwise, never O(n·k) dense products;
* each centering run owns a :class:`_StructuredWorkspace` with preallocated
  right-hand-side/solution buffers; per-application Hessian blocks of equal
  width are factorised in *batched* LAPACK calls (one batched Cholesky for
  the positive-definiteness check, one batched solve), while blocks at
  least ``_SPLU_BLOCK_WIDTH`` wide go through a sparse ``splu``
  factorisation instead;
* the line-search merit is evaluated through one CSR matrix per constraint
  family spanning all blocks (a few sparse matvecs per trial point instead
  of a Python loop over per-block terms).

Per-iteration cost is therefore linear in the number of applications; the
``benchmarks/test_bench_block_newton.py`` scaling curve pins this.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as _sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import qr as _sp_qr, solve_triangular as _sp_solve_triangular
from scipy.sparse.linalg import splu as _sp_splu

from repro.obs.metrics import get_registry as _metrics_registry
from repro.obs.trace import span as obs_span
from repro.reliability.faults import maybe_fail as _maybe_fail
from repro.solver.problem import (
    BlockStructure,
    CompiledCone,
    CompiledHyperbolic,
    CompiledProblem,
)
from repro.solver.result import Solution, SolverStatus

#: Per-application Hessian blocks at least this wide are factorised with a
#: sparse LU (:func:`scipy.sparse.linalg.splu`) instead of joining a batched
#: dense Cholesky group.  Workload blocks are narrow (a few dozen variables),
#: so this only engages for unusually large applications.
_SPLU_BLOCK_WIDTH = 256


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system for a (multi-column) rhs.

    Raises :class:`numpy.linalg.LinAlgError` when the matrix is not positive
    definite, which the structured kernel catches to fall back to the dense
    one.
    """
    if matrix.shape[0] == 0:
        return np.zeros_like(rhs)
    return cho_solve(
        cho_factor(matrix, lower=True, check_finite=False),
        rhs,
        check_finite=False,
    )


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
    #: Phase-II starting barrier parameter used *only* when phase I is skipped
    #: (the initial point was already strictly feasible).  Warm-started
    #: re-solves (:class:`repro.solver.parametric.SolveSession`) set this to a
    #: power of ``barrier_increase`` a few rungs below the previous solve's
    #: final value, so centering restarts near the previous optimum instead of
    #: walking the whole central path again.  The solver clamps it so that the
    #: stopping rung — and therefore the returned point — matches a cold solve.
    warm_initial_barrier: Optional[float] = None
    #: Largest Newton decrement ``λ²`` at which :meth:`BarrierSolver.
    #: _select_warm_rung` accepts a raised starting rung for a warm-started
    #: phase II.  The default keeps the first centering within a few damped
    #: Newton steps; callers whose warm points are systematically further
    #: from the new central path — e.g. incremental workload-session edits,
    #: where membership changes shift the shared capacity slacks — may raise
    #: it (a rung that then fails to center still trips the convergence
    #: guard and falls back to a cold run, so correctness is unaffected).
    warm_rung_decrement: float = 4.0


class _BarrierTerm:
    """Interface of one log-barrier term: slack, barrier value, gradient, Hessian.

    A term may be *narrow*: ``support`` lists the coordinates of the solver
    vector it reads (its matrices then have ``len(support)`` columns), and
    ``block`` tags the structure block it belongs to (``None`` for full-width
    / coupling terms).  ``grad_hess`` always returns arrays in the term's
    local coordinates; callers scatter through ``support``.
    """

    #: number of elementary constraints represented by this term
    count: int = 1
    #: coordinates of the solver vector this term reads (``None`` = all)
    support: Optional[np.ndarray] = None
    #: index of the structure block this term is local to (``None`` = global)
    block: Optional[int] = None

    def local(self, x: np.ndarray) -> np.ndarray:
        return x if self.support is None else x[self.support]

    def slack(self, x: np.ndarray) -> float:
        """Smallest slack of the represented constraints (must stay > 0)."""
        raise NotImplementedError

    def slack_and_barrier(self, x: np.ndarray) -> Tuple[float, float]:
        """Smallest slack and ``Σ −log(slack_i)`` from one slack evaluation.

        The line search needs the feasibility check and the merit value at
        every trial point; one evaluation serves both (see
        :meth:`BarrierSolver._newton_minimise`).
        """
        raise NotImplementedError

    def grad_hess(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _LinearBlock(_BarrierTerm):
    """Vectorised barrier block for ``G·x ≤ h``."""

    def __init__(
        self,
        G: np.ndarray,
        h: np.ndarray,
        support: Optional[np.ndarray] = None,
        block: Optional[int] = None,
    ) -> None:
        self.G = np.asarray(G, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.count = int(self.G.shape[0])
        self.support = support
        self.block = block

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return self.h - self.G @ self.local(x)

    def slack(self, x: np.ndarray) -> float:
        if self.count == 0:
            return 1.0
        return float(np.min(self.slacks(x)))

    def slack_and_barrier(self, x: np.ndarray) -> Tuple[float, float]:
        if self.count == 0:
            return 1.0, 0.0
        s = self.slacks(x)
        smallest = float(np.min(s))
        if smallest <= 0.0:
            return smallest, math.inf
        return smallest, float(-np.sum(np.log(s)))

    def grad_hess(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        s = self.slacks(x)
        inv = 1.0 / s
        grad = self.G.T @ inv
        hess = (self.G * (inv * inv)[:, None]).T @ self.G
        return grad, hess


class _HyperbolicBlock(_BarrierTerm):
    """Vectorised barrier block for a family of hyperbolic constraints.

    All ``(p_i·x + p0_i)(q_i·x + q0_i) ≥ w_i`` terms (positive branch) are
    stacked into matrices so that slack, barrier value, gradient and Hessian
    are computed with a handful of BLAS calls instead of a Python loop over
    the constraints.
    """

    def __init__(
        self,
        hyps: Sequence[CompiledHyperbolic],
        support: Optional[np.ndarray] = None,
        block: Optional[int] = None,
    ) -> None:
        self.P = np.vstack([np.asarray(h.p, dtype=float) for h in hyps])
        self.p0 = np.array([float(h.p0) for h in hyps])
        self.Q = np.vstack([np.asarray(h.q, dtype=float) for h in hyps])
        self.q0 = np.array([float(h.q0) for h in hyps])
        self.w = np.array([float(h.bound) for h in hyps])
        self.count = len(hyps)
        self.support = support
        self.block = block

    def _pqf(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        local = self.local(x)
        pv = self.P @ local + self.p0
        qv = self.Q @ local + self.q0
        return pv, qv, pv * qv - self.w

    def slack(self, x: np.ndarray) -> float:
        pv, qv, f = self._pqf(x)
        branch = np.minimum(pv, qv)
        return float(np.min(np.where(branch <= 0.0, -1.0, f)))

    def slack_and_barrier(self, x: np.ndarray) -> Tuple[float, float]:
        pv, qv, f = self._pqf(x)
        branch = np.minimum(pv, qv)
        smallest = float(np.min(np.where(branch <= 0.0, -1.0, f)))
        if smallest <= 0.0:
            return smallest, math.inf
        return smallest, float(-np.sum(np.log(f)))

    def grad_hess(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pv, qv, f = self._pqf(x)
        inv = 1.0 / f
        # ∇f_i = q_i·P_i + p_i·Q_i, stacked row-wise.
        Gf = self.P * qv[:, None] + self.Q * pv[:, None]
        grad = -(Gf.T @ inv)
        # Σ ∇f∇fᵀ/f² − Σ ∇²f/f with ∇²f_i = P_iQ_iᵀ + Q_iP_iᵀ.
        hess = (Gf * (inv * inv)[:, None]).T @ Gf
        PQ = (self.P * inv[:, None]).T @ self.Q
        hess -= PQ + PQ.T
        return grad, hess


class _ConeBlock(_BarrierTerm):
    """Vectorised barrier block for SOC constraints sharing one norm dimension.

    Cones ``‖A_i·x + b_i‖₂ ≤ c_i·x + d_i`` (branch ``c_i·x + d_i > 0``) whose
    ``A_i`` matrices have the same number of rows are batched into a single
    3-D tensor; callers group cones by row count before constructing blocks.
    """

    def __init__(
        self,
        cones: Sequence[CompiledCone],
        support: Optional[np.ndarray] = None,
        block: Optional[int] = None,
    ) -> None:
        self.A = np.stack([np.asarray(c.A, dtype=float) for c in cones])
        self.b = np.stack([np.asarray(c.b, dtype=float) for c in cones])
        self.C = np.vstack([np.asarray(c.c, dtype=float) for c in cones])
        self.d = np.array([float(c.d) for c in cones])
        self.count = len(cones)
        self.support = support
        self.block = block

    def _uvf(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        local = self.local(x)
        u = self.A @ local + self.b
        v = self.C @ local + self.d
        f = v * v - np.einsum("im,im->i", u, u)
        return u, v, f

    def slack(self, x: np.ndarray) -> float:
        _, v, f = self._uvf(x)
        return float(np.min(np.where(v <= 0.0, -1.0, f)))

    def slack_and_barrier(self, x: np.ndarray) -> Tuple[float, float]:
        _, v, f = self._uvf(x)
        smallest = float(np.min(np.where(v <= 0.0, -1.0, f)))
        if smallest <= 0.0:
            return smallest, math.inf
        return smallest, float(-np.sum(np.log(f)))

    def grad_hess(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        u, v, f = self._uvf(x)
        inv = 1.0 / f
        # ∇f_i = 2v_i·c_i − 2A_iᵀu_i, stacked row-wise.
        Gf = 2.0 * (self.C * v[:, None] - np.einsum("imk,im->ik", self.A, u))
        grad = -(Gf.T @ inv)
        # Σ ∇f∇fᵀ/f² − Σ ∇²f/f with ∇²f_i = 2(c_ic_iᵀ − A_iᵀA_i).
        hess = (Gf * (inv * inv)[:, None]).T @ Gf
        hess -= 2.0 * ((self.C * inv[:, None]).T @ self.C)
        hess += 2.0 * np.einsum("imj,i,imk->jk", self.A, inv, self.A)
        return grad, hess


def _cone_blocks(
    cones: Sequence[CompiledCone],
    support: Optional[np.ndarray] = None,
    block: Optional[int] = None,
) -> List[_ConeBlock]:
    """Batch cones into vectorised blocks, grouped by norm dimension."""
    by_rows: Dict[int, List[CompiledCone]] = {}
    for cone in cones:
        by_rows.setdefault(int(np.asarray(cone.A).shape[0]), []).append(cone)
    return [
        _ConeBlock(group, support=support, block=block)
        for _, group in sorted(by_rows.items())
    ]


def _accumulate_dense(
    terms: Sequence[_BarrierTerm], z: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble the full barrier gradient and Hessian, scattering narrow terms."""
    k = z.size
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    for term in terms:
        g_i, h_i = term.grad_hess(z)
        if term.support is None:
            grad += g_i
            hess += h_i
        else:
            grad[term.support] += g_i
            hess[np.ix_(term.support, term.support)] += h_i
    return grad, hess


def _single_block(problem: CompiledProblem) -> BlockStructure:
    """The one-block partition of a program compiled without a structure."""
    return BlockStructure(
        ranges=[(0, problem.num_variables)],
        row_blocks=np.zeros(problem.h.shape[0], dtype=int),
        equality_blocks=np.zeros(problem.b.shape[0], dtype=int),
        hyperbolic_blocks=[0] * len(problem.hyperbolic),
        cone_blocks=[0] * len(problem.cones),
    )


def _block_support(slc: slice, k: int, border: int) -> Optional[np.ndarray]:
    """Coordinates of the block ``slc`` followed by the ``border`` ones.

    ``None`` (read the whole vector) when the block spans all ``k`` leading
    coordinates — a single-block problem — which spares every term a
    gather of the full vector.
    """
    if slc.start == 0 and slc.stop == k:
        return None
    return np.concatenate(
        [np.arange(slc.start, slc.stop), np.arange(k, k + border)]
    )


def _eq_block(problem: CompiledProblem, rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Dense copy of the narrow equality sub-matrix ``A[rows, start:stop]``.

    Sliced from the CSR form so the full dense ``A`` is never materialised.
    """
    return np.asarray(problem.A_sparse[rows][:, start:stop].todense())


def _ineq_block(problem: CompiledProblem, rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Dense copy of the narrow inequality sub-matrix ``G[rows, start:stop]``."""
    return np.asarray(problem.G_sparse[rows][:, start:stop].todense())


def _block_nullspace(A_block: np.ndarray, b_block: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Particular solution and orthonormal null-space basis of one block.

    Uses one pivoted QR factorisation of ``A_blockᵀ``: ``A_blockᵀ·P = Q·R``
    gives both the min-norm particular solution through a triangular solve
    and the null space as the trailing columns of ``Q``.  Returns ``None``
    when the block's equalities are inconsistent.
    """
    width = A_block.shape[1]
    Q, R, perm = _sp_qr(A_block.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(R)) if R.size else np.zeros(0)
    scale = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > max(A_block.shape) * np.finfo(float).eps * scale))
    if rank:
        y = _sp_solve_triangular(
            R[:rank, :rank].T, b_block[perm][:rank], lower=True
        )
        x_block = Q[:, :rank] @ y
    else:
        x_block = np.zeros(width)
    basis = Q[:, rank:]
    tolerance = 1e-7 * max(1.0, float(np.abs(b_block).max(initial=0.0)))
    if not np.allclose(A_block @ x_block, b_block, atol=tolerance):
        return None
    if basis.size == 0:
        basis = np.zeros((width, 0))
    return x_block, basis


@dataclass
class _BlockEliminationSeed:
    """One block's elimination result, carried between compiled problems.

    Extracted by :func:`transfer_block_eliminations` from a solved problem's
    cached :class:`_ReducedProblem` and validated against the target block's
    own equality data (``A_block``/``b_block``) before the basis is reused —
    a mismatch simply recomputes the SVD, so seeding is always safe.
    """

    A_block: np.ndarray
    b_block: np.ndarray
    x_block: np.ndarray
    basis: np.ndarray


def transfer_block_eliminations(
    source: "CompiledProblem",
    target: "CompiledProblem",
    block_map: Dict[int, int],
) -> int:
    """Seed ``target``'s blockwise elimination with ``source``'s per-block bases.

    ``block_map`` maps *source* block indices to *target* block indices for
    the blocks whose variables (and therefore equality rows) are unchanged —
    in an incrementally edited workload session, every application except the
    added/removed/replaced one.  The next blockwise elimination of ``target``
    then performs one SVD per *new* block only; each seeded block's equality
    data is verified against the stored copy first, so a wrong mapping
    degrades to a recomputation, never to a wrong basis.

    Returns the number of blocks seeded (0 when either problem lacks a usable
    blockwise elimination).
    """
    reduced = source.elimination_cache
    structure = source.block_structure
    if (
        not isinstance(reduced, _ReducedProblem)
        or structure is None
        or reduced.structure is not structure
        or target.block_structure is None
    ):
        return 0
    seeds: Dict[int, object] = {}
    for source_index, target_index in block_map.items():
        if not 0 <= source_index < structure.num_blocks:
            continue
        if not 0 <= target_index < target.block_structure.num_blocks:
            continue
        start, stop = structure.ranges[source_index]
        rows = np.flatnonzero(structure.equality_blocks == source_index)
        if rows.size == 0:
            # A block without equality rows has nothing to eliminate; the
            # target's elimination never consults a seed for it, so storing
            # one would only retain dead basis copies.
            continue
        basis = reduced.basis_for(source_index)
        if basis is None:
            basis = np.eye(stop - start)
        seeds[target_index] = _BlockEliminationSeed(
            A_block=_eq_block(source, rows, start, stop),
            b_block=source.b[rows].copy(),
            x_block=reduced.x_particular[start:stop].copy(),
            basis=basis.copy(),
        )
    if seeds:
        target.elimination_seed = seeds
    return len(seeds)


@dataclass
class _CenteringResult:
    """Outcome of one :meth:`BarrierSolver._barrier_minimise` run."""

    z: np.ndarray
    status: SolverStatus
    outer: int                 #: outer (centering) iterations
    newton: int                #: Newton iterations summed over the rungs
    final_barrier: float       #: barrier parameter at exit
    #: the centered point of the first rung when that rung was the base
    #: ``initial_barrier`` (the warm-start "interior hint" for related solves)
    first_center: Optional[np.ndarray] = None
    #: whether the last centering met its decrement target (as opposed to
    #: exhausting the Newton budget) — the ``m/t`` gap bound is only trusted
    #: for raised warm rungs when this holds
    converged: bool = True


@dataclass
class _PiecesCache:
    """Solve-invariant parts of the per-block reduction.

    Everything here depends only on ``G``, the cone data and the elimination
    (``A``/``b``) — never on ``h``, the only array parametric re-solves
    mutate.  Cached on the :class:`_ReducedProblem` (itself cached on the
    compiled problem), so a warm-started session pays for the basis
    projections once and refreshes only the ``h``-derived right-hand sides
    per solve.
    """

    block_rows: List[np.ndarray]       #: inequality row indices per block
    block_G: List[np.ndarray]          #: ``G[rows][:, block] @ basis`` per block
    block_offsets: List[np.ndarray]    #: ``G[rows] @ x_p`` per block
    hyps: List[List[CompiledHyperbolic]]
    cones: List[List[CompiledCone]]
    coupling_rows: np.ndarray
    coupling_G: np.ndarray
    coupling_offset: np.ndarray


class _ReducedProblem:
    """A problem restricted to the affine subspace ``x = x_p + N·z``.

    The elimination runs block by block over :attr:`structure` (a single
    block for a program compiled without one), so ``N`` is block diagonal:
    only the per-block bases (``ranges[b]`` rows × ``block_slices[b]``
    columns) are stored, and lift / projection / row reduction run block by
    block in ``O(Σ width·k_b)`` instead of ``O(n·k)``.
    """

    def __init__(
        self,
        x_particular: np.ndarray,
        structure: BlockStructure,
        block_bases: List[Optional[np.ndarray]],
        blocks_computed: int = 0,
        blocks_reused: int = 0,
    ) -> None:
        self.x_particular = x_particular
        #: the block partition this reduction follows
        self.structure = structure
        #: per-block variable index ranges
        self.ranges = structure.ranges
        #: per-block null-space bases; ``None`` entries mean the identity
        #: (a block without equality rows keeps all its variables)
        self.block_bases = block_bases
        #: contiguous per-block coordinate slices of the reduced space
        self.block_slices: List[slice] = []
        offset = 0
        for (start, stop), basis in zip(self.ranges, block_bases):
            width = stop - start if basis is None else basis.shape[1]
            self.block_slices.append(slice(offset, offset + width))
            offset += width
        #: lazily filled solve-invariant reduction products
        self.pieces_cache: Optional[_PiecesCache] = None
        #: accounting of the elimination that produced this reduction:
        #: factorisations actually performed vs per-block bases reused from
        #: an :attr:`~repro.solver.problem.CompiledProblem.elimination_seed`
        self.blocks_computed = blocks_computed
        self.blocks_reused = blocks_reused

    @property
    def dimension(self) -> int:
        return self.block_slices[-1].stop if self.block_slices else 0

    def basis_for(self, block_index: int) -> Optional[np.ndarray]:
        """Block ``block_index``'s basis; ``None`` means identity."""
        return self.block_bases[block_index]

    def lift(self, z: np.ndarray) -> np.ndarray:
        x = self.x_particular.copy()
        for (start, stop), slc, basis in zip(
            self.ranges, self.block_slices, self.block_bases
        ):
            if basis is None:
                x[start:stop] += z[slc]
            else:
                x[start:stop] += basis @ z[slc]
        return x

    def reduce_direction(self, row: np.ndarray) -> np.ndarray:
        out = np.empty(self.dimension)
        for (start, stop), slc, basis in zip(
            self.ranges, self.block_slices, self.block_bases
        ):
            if basis is None:
                out[slc] = row[start:stop]
            else:
                out[slc] = row[start:stop] @ basis
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        """Least-squares coordinates of ``x − x_p`` in the basis.

        With a block-diagonal ``N`` the least-squares problem decouples
        exactly, so it is solved as one small problem per block.
        """
        residual = x - self.x_particular
        z = np.empty(self.dimension)
        for (start, stop), slc, basis in zip(
            self.ranges, self.block_slices, self.block_bases
        ):
            if basis is None:
                z[slc] = residual[start:stop]
            else:
                # Bases are orthonormal (QR columns), but solve the block
                # least-squares problem anyway so seeded bases of any
                # provenance project correctly.
                z[slc], *_ = np.linalg.lstsq(
                    basis, residual[start:stop], rcond=None
                )
        return z


@dataclass
class _ReducedPieces:
    """Per-block narrow reduced data of one solve.

    ``linear[b]`` is block ``b``'s reduced inequality rows ``(G, h)`` in its
    own coordinates; ``hyps[b]`` / ``cones[b]`` its reduced non-linear
    constraints; ``coupling`` the full-width reduced coupling rows.  Both the
    phase-II terms and the phase-I relaxation are assembled from these.
    """

    linear: List[Tuple[np.ndarray, np.ndarray]]
    hyps: List[List[CompiledHyperbolic]]
    cones: List[List[CompiledCone]]
    coupling: Tuple[np.ndarray, np.ndarray]


@dataclass
class _StructurePlan:
    """Arrow decomposition of one centering problem.

    ``block_slices`` partition the leading coordinates into per-application
    blocks; ``border`` counts trailing shared coordinates (the phase-I
    relaxation variable ``t``; zero in phase II).  ``block_terms[b]`` holds
    the narrow barrier terms local to block ``b`` (their ``support`` is the
    block's coordinates followed by the border), and ``coupling`` the
    full-width linear rows joining the blocks.
    """

    block_slices: List[slice]
    border: int
    block_terms: List[List[_BarrierTerm]]
    coupling: Optional[_LinearBlock]

    def __post_init__(self) -> None:
        #: the flat term list (block terms + coupling) for generic loops
        self.terms: List[_BarrierTerm] = [
            term for terms in self.block_terms for term in terms
        ]
        if self.coupling is not None:
            self.terms.append(self.coupling)


class _MeritBundle:
    """Vectorised line-search merit for a structured plan.

    All per-block *linear* terms (plus coupling) are scattered into one CSR
    matrix over the full reduced coordinates, and all *hyperbolic* terms into
    a CSR pair — one trial point then costs a few sparse matvecs instead of a
    Python loop over every block's terms.  Term families without a vectorised
    form (the batched SOC blocks of phase I) stay on the per-term path.

    The merit value is mathematically identical to
    :meth:`_DenseWorkspace.merit` over the same terms; only the
    floating-point summation order differs, which the difference-form line
    search is insensitive to.
    """

    def __init__(self, plan: _StructurePlan, k: int) -> None:
        self.G = self.h = self.P = self.Q = None
        self.leftovers: List[_BarrierTerm] = []
        lin_data: List[np.ndarray] = []
        lin_rows: List[np.ndarray] = []
        lin_cols: List[np.ndarray] = []
        lin_h: List[np.ndarray] = []
        lin_count = 0
        hyp_entries: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        hyp_p0: List[np.ndarray] = []
        hyp_q0: List[np.ndarray] = []
        hyp_w: List[np.ndarray] = []
        hyp_count = 0

        def scatter(matrix: np.ndarray, support: Optional[np.ndarray], row_offset: int):
            rows_local, cols_local = np.nonzero(matrix)
            cols = cols_local if support is None else support[cols_local]
            return matrix[rows_local, cols_local], rows_local + row_offset, cols

        for term in plan.terms:
            if isinstance(term, _LinearBlock):
                data, rows, cols = scatter(term.G, term.support, lin_count)
                lin_data.append(data)
                lin_rows.append(rows)
                lin_cols.append(cols)
                lin_h.append(term.h)
                lin_count += term.count
            elif isinstance(term, _HyperbolicBlock):
                for matrix in (term.P, term.Q):
                    hyp_entries.append(scatter(matrix, term.support, hyp_count))
                hyp_p0.append(term.p0)
                hyp_q0.append(term.q0)
                hyp_w.append(term.w)
                hyp_count += term.count
            else:
                self.leftovers.append(term)

        if lin_count:
            self.G = _sp.csr_matrix(
                (
                    np.concatenate(lin_data),
                    (np.concatenate(lin_rows), np.concatenate(lin_cols)),
                ),
                shape=(lin_count, k),
            )
            self.h = np.concatenate(lin_h)
        if hyp_count:
            p_parts = hyp_entries[0::2]
            q_parts = hyp_entries[1::2]
            self.P = _sp.csr_matrix(
                (
                    np.concatenate([e[0] for e in p_parts]),
                    (
                        np.concatenate([e[1] for e in p_parts]),
                        np.concatenate([e[2] for e in p_parts]),
                    ),
                ),
                shape=(hyp_count, k),
            )
            self.Q = _sp.csr_matrix(
                (
                    np.concatenate([e[0] for e in q_parts]),
                    (
                        np.concatenate([e[1] for e in q_parts]),
                        np.concatenate([e[2] for e in q_parts]),
                    ),
                ),
                shape=(hyp_count, k),
            )
            self.p0 = np.concatenate(hyp_p0)
            self.q0 = np.concatenate(hyp_q0)
            self.w = np.concatenate(hyp_w)

    def merit(self, z: np.ndarray) -> float:
        """Barrier value ``φ(z)``; ``+inf`` when any slack is non-positive."""
        total = 0.0
        if self.G is not None:
            s = self.h - self.G @ z
            if s.size and float(s.min()) <= 0.0:
                return math.inf
            total -= float(np.sum(np.log(s)))
        if self.P is not None:
            pv = self.P @ z + self.p0
            qv = self.Q @ z + self.q0
            f = pv * qv - self.w
            if (
                float(pv.min(initial=1.0)) <= 0.0
                or float(qv.min(initial=1.0)) <= 0.0
                or float(f.min(initial=1.0)) <= 0.0
            ):
                return math.inf
            total -= float(np.sum(np.log(f)))
        for term in self.leftovers:
            slack, value = term.slack_and_barrier(z)
            if slack <= 0.0:
                return math.inf
            total += value
        return total


class _DenseWorkspace:
    """Newton kernel of a one-block (or widely coupled) problem: one dense solve.

    Every barrier term of the plan is scattered into one ``(k, k)`` Hessian,
    which gets the trace-scaled Tikhonov term and a dense solve (least
    squares when the system is singular).  On one small block this beats the
    arrow machinery of :class:`_StructuredWorkspace`, whose per-iteration
    fallback it also is.
    """

    def __init__(self, plan: _StructurePlan, k: int, options: BarrierOptions) -> None:
        self.plan = plan
        self.k = k
        self.options = options

    def direction(
        self, z: np.ndarray, grad_objective: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The gradient and Newton direction of ``grad_objective·z + φ(z)``."""
        k = self.k
        grad_barrier, hess = _accumulate_dense(self.plan.terms, z)
        grad = grad_objective + grad_barrier
        hess += self.options.regularization * (1.0 + np.trace(hess) / max(k, 1)) * np.eye(k)
        try:
            # Chaos site: an armed ``newton.linalg`` fault raises the same
            # LinAlgError a singular system would, forcing the lstsq step.
            _maybe_fail("newton.linalg")
            direction = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        return grad, direction

    def merit(self, z: np.ndarray) -> float:
        """Barrier value ``φ(z)``; ``+inf`` when any constraint slack is ≤ 0.

        One slack evaluation per term serves both the feasibility check and
        the barrier value (:meth:`_BarrierTerm.slack_and_barrier`).  The
        linear merit part is handled by the caller in difference form, so
        only the barrier sum is evaluated here.
        """
        total = 0.0
        for term in self.plan.terms:
            slack, value = term.slack_and_barrier(z)
            if slack <= 0.0:
                return math.inf
            total += value
        return total


class _StructuredWorkspace:
    """Newton kernel of a multi-block problem: block factorisations + Schur.

    Owns the preallocated hot-loop state of one centering run: the
    right-hand-side / solution buffers of the arrow solve (the coupling
    columns ``Gcᵀ`` are written **once** — they are constant across Newton
    iterations, only the gradient column changes), the per-block local
    Hessian buffers, and the batched factorisation groups: blocks of equal
    width are stacked into one ``(B, w, w)`` tensor and factorised with a
    single batched Cholesky (the positive-definiteness check) followed by
    one batched solve, so the per-iteration Python cost no longer scales
    with a per-block pair of LAPACK calls.  Blocks at least
    ``_SPLU_BLOCK_WIDTH`` wide are instead factorised sparsely via
    :func:`scipy.sparse.linalg.splu`.

    The Hessian assembled here is identical to :class:`_DenseWorkspace`'s
    (including the trace-scaled Tikhonov regularisation), so both kernels
    produce the same Newton iterates up to floating-point rounding.  When a
    block factorisation fails, that iteration's direction comes from a
    dense twin over the same plan instead (counted in
    ``stats["fallback_iterations"]``).
    """

    def __init__(
        self,
        plan: _StructurePlan,
        k: int,
        options: BarrierOptions,
        stats: Dict[str, float],
    ) -> None:
        self.plan = plan
        self.options = options
        self.stats = stats
        self.k = k
        self.border = plan.border
        coupling = plan.coupling
        self.m = int(coupling.count) if coupling is not None else 0
        cols = 1 + self.m
        self.cols = cols
        self.rhs = np.empty((k, cols))
        if self.m:
            self.rhs[:, 1:] = coupling.G.T
            self._coupling_sq = np.einsum("ij,ij->i", coupling.G, coupling.G)
        self.solved = np.empty((k, cols))
        self.grad = np.empty(k)
        #: (slc, width, terms, local Hessian buffer) per block
        self.block_infos: List[Tuple[slice, int, List[_BarrierTerm], np.ndarray]] = []
        groups: Dict[int, List[int]] = {}
        self.splu_blocks: List[int] = []
        for index, (slc, terms) in enumerate(
            zip(plan.block_slices, plan.block_terms)
        ):
            width = slc.stop - slc.start
            local = np.zeros((width + self.border, width + self.border))
            self.block_infos.append((slc, width, terms, local))
            if width == 0:
                continue
            if width >= _SPLU_BLOCK_WIDTH:
                self.splu_blocks.append(index)
            else:
                groups.setdefault(width, []).append(index)
        #: batched groups: (member block indices, width, H stack, rhs stack)
        self.batch_groups: List[Tuple[List[int], int, np.ndarray, np.ndarray]] = [
            (
                members,
                width,
                np.empty((len(members), width, width)),
                np.empty((len(members), width, cols + self.border)),
            )
            for width, members in sorted(groups.items())
        ]
        self._border_parts: Dict[int, np.ndarray] = {}
        self.merit_bundle = _MeritBundle(plan, k)
        self._dense: Optional[_DenseWorkspace] = None

    def merit(self, z: np.ndarray) -> float:
        return self.merit_bundle.merit(z)

    def direction(
        self, z: np.ndarray, grad_objective: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The arrow direction, or the dense twin's when a factorisation fails."""
        try:
            return self._arrow_direction(z, grad_objective)
        except np.linalg.LinAlgError:
            self.stats["fallback_iterations"] += 1
            if self._dense is None:
                self._dense = _DenseWorkspace(self.plan, self.k, self.options)
            return self._dense.direction(z, grad_objective)

    def _arrow_direction(
        self, z: np.ndarray, grad_objective: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One Newton direction via batched block factorisations + Schur.

        The Hessian of the centering problem is ``H = H₀ + Gcᵀ·W·Gc`` with
        ``H₀`` bordered block diagonal (per-application blocks, plus the
        phase-I relaxation column as a border) and ``W = diag(1/s²)`` over
        the coupling-row slacks.  ``H₀⁻¹`` is applied through per-block
        factorisations and the border's Schur complement; the coupling's
        low-rank term is folded in through the matrix-inversion lemma — its
        Schur matrix has coupling-row dimension (the number of shared
        processors and memories), so the cost per step is the sum of the
        per-block factorisations instead of one cube of the full size.

        Raises :class:`numpy.linalg.LinAlgError` when any block is not
        positive definite (or a Schur system is singular), which
        :meth:`direction` catches to fall back to the dense twin.
        """
        plan = self.plan
        k, border, m, cols = self.k, self.border, self.m, self.cols
        blocks_end = k - border
        grad = self.grad
        grad[:] = grad_objective
        trace = 0.0
        for slc, width, terms, local in self.block_infos:
            local.fill(0.0)
            for term in terms:
                g_i, h_i = term.grad_hess(z)
                local += h_i
                grad[slc] += g_i[:width]
                if border:
                    grad[blocks_end:] += g_i[width:]
            trace += float(np.trace(local))

        coupling = plan.coupling
        W = Gc = None
        if m:
            s = coupling.slacks(z)
            inv = 1.0 / s
            grad += coupling.G.T @ inv
            W = inv * inv
            Gc = coupling.G
            trace += float(W @ self._coupling_sq)

        reg = self.options.regularization * (1.0 + trace / max(k, 1))
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
            self._border_parts.clear()
            # Border-border curvature of every block (including width-0
            # blocks, e.g. the phase-I lower-bound row on t).
            for slc, width, terms, local in self.block_infos:
                schur += local[width:, width:]

        for members, width, H_stack, R_stack in self.batch_groups:
            for j, index in enumerate(members):
                slc, _, _, local = self.block_infos[index]
                H_stack[j] = local[:width, :width]
                R_stack[j, :, :cols] = rhs[slc]
                if border:
                    R_stack[j, :, cols:] = local[:width, width:]
            H_stack[:, np.arange(width), np.arange(width)] += reg
            # Batched Cholesky is the positive-definiteness check (raises
            # LinAlgError → dense twin); the batched LU solve then
            # produces all block solutions in one LAPACK call.
            np.linalg.cholesky(H_stack)
            sol = np.linalg.solve(H_stack, R_stack)
            self.stats["block_factorizations"] += len(members)
            for j, index in enumerate(members):
                slc, _, _, local = self.block_infos[index]
                solved[slc] = sol[j, :, :cols]
                if border:
                    cross = local[:width, width:]
                    cross_rhs += cross.T @ sol[j, :, :cols]
                    schur -= cross.T @ sol[j, :, cols:]
                    self._border_parts[index] = sol[j, :, cols:]

        for index in self.splu_blocks:
            slc, width, terms, local = self.block_infos[index]
            diag = local[:width, :width] + reg * np.eye(width)
            block_rhs = np.hstack([rhs[slc], local[:width, width:]])
            try:
                lu = _sp_splu(_sp.csc_matrix(diag))
                block_solution = lu.solve(block_rhs)
            except RuntimeError as error:  # singular factor → dense twin
                raise np.linalg.LinAlgError(str(error)) from error
            self.stats["block_factorizations"] += 1
            solved[slc] = block_solution[:, :cols]
            if border:
                cross = local[:width, width:]
                cross_rhs += cross.T @ block_solution[:, :cols]
                schur -= cross.T @ block_solution[:, cols:]
                self._border_parts[index] = block_solution[:, cols:]
        self.stats["factorization_time"] += time.perf_counter() - factor_start

        schur_start = time.perf_counter()
        if border:
            border_solution = _spd_solve(schur, rhs[blocks_end:] - cross_rhs)
            for index, q_part in self._border_parts.items():
                slc = self.block_infos[index][0]
                solved[slc] -= q_part @ border_solution
            solved[blocks_end:] = border_solution
        if m:
            base = solved[:, 0]
            lifted = solved[:, 1:]
            # Matrix-inversion lemma: (W⁻¹ + Gc·H₀⁻¹·Gcᵀ) is the coupling
            # Schur complement of the arrow-structured KKT system.
            schur_c = np.diag(1.0 / W) + Gc @ lifted
            weights = np.linalg.solve(schur_c, Gc @ base)
            direction = -(base - lifted @ weights)
        else:
            direction = -solved[:, 0]
        self.stats["schur_time"] += time.perf_counter() - schur_start
        return grad, direction


class BarrierSolver:
    """Two-phase log-barrier interior-point solver."""

    def __init__(self, options: Optional[BarrierOptions] = None) -> None:
        self.options = options or BarrierOptions()

    # -- public entry point -------------------------------------------------
    def solve(
        self,
        problem: CompiledProblem,
        initial_point: Optional[np.ndarray] = None,
        interior_point: Optional[np.ndarray] = None,
    ) -> Solution:
        """Solve ``problem``; both hint points are optional.

        ``initial_point`` is the primary start (warm-start or heuristic).
        ``interior_point`` is a well-interior fallback — typically the
        first-rung central point of a related previous solve: it is tried for
        the phase-I skip when ``initial_point`` is infeasible, and phase II
        restarts from it at the base rung when the primary point sits too
        close to the boundary to be worth re-centering from.
        """
        opts = self.options
        n = problem.num_variables

        if n == 0:
            return Solution(
                status=SolverStatus.OPTIMAL,
                objective=problem.c0,
                values={},
                backend="barrier",
            )

        reduced, elimination_computed = self._eliminate_equalities(problem)
        if reduced is None:
            return Solution(
                status=SolverStatus.INFEASIBLE,
                backend="barrier",
                message="equality constraints are inconsistent",
            )

        #: Structured-kernel accounting shared by every workspace of this
        #: solve (phase I, warm-rung probing, phase II); reset per solve.
        self._sparse_stats = {
            "factorization_time": 0.0,
            "schur_time": 0.0,
            "block_factorizations": 0,
            "fallback_iterations": 0,
        }
        structured = self._structure_enabled(reduced)
        pieces = self._reduced_pieces(problem, reduced)
        plan = self._phase_two_plan(pieces, reduced)
        workspace = self._workspace(plan, reduced.dimension, structured)
        terms = plan.terms
        c_reduced = reduced.reduce_direction(problem.c)
        total_constraints = sum(term.count for term in terms)

        if total_constraints == 0:
            # Unconstrained affine minimisation: bounded only if c == 0.
            if np.allclose(c_reduced, 0.0):
                x = reduced.lift(np.zeros(reduced.dimension))
                return Solution(
                    status=SolverStatus.OPTIMAL,
                    objective=problem.objective_value(x),
                    values=problem.point_as_mapping(x),
                    backend="barrier",
                )
            return Solution(
                status=SolverStatus.UNBOUNDED,
                backend="barrier",
                message="no constraints and a non-zero objective",
            )

        z0 = self._initial_reduced_point(problem, reduced, initial_point)
        z_interior: Optional[np.ndarray] = None
        if interior_point is not None:
            z_interior = self._initial_reduced_point(problem, reduced, interior_point)
        fallbacks = [z_interior] if z_interior is not None else []
        with obs_span("phase1") as phase1_span:
            z_feasible, feasibility, phase1 = self._phase_one(
                problem, reduced, pieces, structured, z0, fallbacks=fallbacks
            )
            phase1_span.set(
                skipped=bool(phase1["skipped"]),
                newton_iterations=int(phase1["newton_iterations"]),
            )
        phase1_time = phase1_span.seconds
        stats: Dict[str, object] = {
            "phase1_skipped": bool(phase1["skipped"]),
            "phase1_newton_iterations": int(phase1["newton_iterations"]),
            "newton_iterations": 0,
            "outer_iterations": 0,
            "structured": structured,
            "elimination_computed": bool(elimination_computed),
            # Per-block elimination accounting of *this* solve: factorisations
            # actually performed vs bases reused from an elimination seed (both 0 on an
            # elimination-cache hit, where nothing was eliminated at all).
            "elimination_blocks_computed": (
                int(reduced.blocks_computed) if elimination_computed else 0
            ),
            "elimination_blocks_reused": (
                int(reduced.blocks_reused) if elimination_computed else 0
            ),
            "phase1_time": phase1_time,
            "centering_time": 0.0,
        }
        if z_feasible is None:
            self._attach_sparse_stats(stats, problem, structured)
            self._record_metrics(stats, optimal=False)
            return Solution(
                status=SolverStatus.INFEASIBLE,
                backend="barrier",
                message=f"phase I ended with infeasibility {feasibility:.3e}",
                stats=stats,
            )

        # Phase-II start selection for warm-started re-solves.  When the warm
        # point is (nearly) centered for a high barrier rung, restart there
        # and skip the early rungs entirely; otherwise prefer the interior
        # hint at the base rung — re-centering from a well-interior point is
        # far cheaper than crawling away from the boundary the previous
        # optimum sits on.
        initial_barrier: Optional[float] = None
        z_start = z_feasible
        if phase1["skipped"] and opts.warm_initial_barrier is not None:
            rung = self._select_warm_rung(
                c_reduced,
                workspace,
                z_feasible,
                float(opts.warm_initial_barrier),
                total_constraints,
                opts.tolerance,
            )
            if rung > opts.initial_barrier:
                initial_barrier = rung
            elif (
                z_interior is not None
                and not np.array_equal(z_interior, z_feasible)
                and all(term.slack(z_interior) > 0.0 for term in terms)
            ):
                z_start = z_interior

        with obs_span("centering") as centering_span:
            result = self._barrier_minimise(
                c_reduced, workspace, z_start, initial_barrier=initial_barrier
            )
            if initial_barrier is not None and not result.converged:
                # The raised rung failed to center within the Newton budget; its
                # gap bound cannot be trusted.  Redo phase II as a cold run.
                retry_start = z_start
                if z_interior is not None and all(
                    term.slack(z_interior) > 0.0 for term in terms
                ):
                    retry_start = z_interior
                with obs_span("cold-retry"):
                    retry = self._barrier_minimise(
                        c_reduced, workspace, retry_start
                    )
                retry.newton += result.newton
                retry.outer += result.outer
                result = retry
            centering_span.set(
                rungs=int(result.outer), newton_iterations=int(result.newton)
            )
        stats["centering_time"] = centering_span.seconds

        stats["newton_iterations"] = int(result.newton)
        stats["outer_iterations"] = int(result.outer)
        stats["final_barrier"] = float(result.final_barrier)
        self._attach_sparse_stats(stats, problem, structured)
        x_opt = reduced.lift(result.z)
        objective = problem.objective_value(x_opt)

        if abs(objective) > opts.unbounded_threshold:
            self._record_metrics(stats, optimal=False)
            return Solution(
                status=SolverStatus.UNBOUNDED,
                backend="barrier",
                message="objective diverged during the barrier iterations",
                stats=stats,
            )

        self._record_metrics(stats, optimal=result.status is SolverStatus.OPTIMAL)
        solution = Solution(
            status=result.status,
            objective=objective,
            values=problem.point_as_mapping(x_opt),
            backend="barrier",
            iterations=result.outer,
            stats=stats,
        )
        if result.first_center is not None:
            solution.interior_point = reduced.lift(result.first_center)
        return solution

    # -- telemetry ------------------------------------------------------------
    def _attach_sparse_stats(
        self,
        stats: Dict[str, object],
        problem: CompiledProblem,
        structured: bool,
    ) -> None:
        """Fold this solve's sparse-backend accounting into its stats dict.

        ``sparse_nnz`` (constraint-matrix nonzeros) is reported for every
        solve; the factorisation/Schur time split, the block-factorisation
        count, the dense-fallback count and the pieces-cache reuse flag only
        exist for the structured kernel.
        """
        stats["sparse_nnz"] = int(problem.constraint_nnz)
        if not structured:
            return
        sparse = self._sparse_stats
        # Directions the structured kernel handed to its dense twin because
        # a block factorisation failed (0 in the common case).
        stats["structured_fallback_iterations"] = int(
            sparse["fallback_iterations"]
        )
        stats["factorization_time"] = float(sparse["factorization_time"])
        stats["schur_time"] = float(sparse["schur_time"])
        stats["block_factorizations"] = int(sparse["block_factorizations"])
        stats["pieces_cache_reused"] = bool(self._pieces_cache_hit)

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
        if stats.get("elimination_computed"):
            registry.counter("solver.elimination_computed").inc()
        registry.counter("solver.elimination_blocks_computed").inc(
            float(stats.get("elimination_blocks_computed", 0))
        )
        registry.counter("solver.elimination_blocks_reused").inc(
            float(stats.get("elimination_blocks_reused", 0))
        )
        if stats.get("structured"):
            registry.counter("solver.structured_solves").inc()
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
            registry.histogram("solver.factorization_seconds").observe(
                float(stats["factorization_time"])
            )
            registry.histogram("solver.schur_seconds").observe(
                float(stats["schur_time"])
            )
            registry.counter("solver.block_factorizations").inc(
                float(stats.get("block_factorizations", 0))
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

    # -- setup ----------------------------------------------------------------
    def _eliminate_equalities(
        self, problem: CompiledProblem
    ) -> Tuple[Optional[_ReducedProblem], bool]:
        """Equality elimination with a per-compiled-problem cache.

        Successful reductions are cached on the compiled problem: the basis
        depends only on ``A`` and ``b``, which parametric re-solves never
        mutate (only ``h`` changes), so a warm-started
        :class:`~repro.solver.parametric.SolveSession` computes the
        factorisations once for the whole sweep.  Returns the reduction
        (``None`` when the equalities are inconsistent) and whether this
        call computed it (``False`` = cache hit), surfaced as the
        ``elimination_computed`` solve statistic.
        """
        cached = problem.elimination_cache
        if isinstance(cached, _ReducedProblem):
            return cached, False
        structure = problem.block_structure
        if structure is None or structure.equality_blocks.shape[0] != problem.b.shape[0]:
            structure = _single_block(problem)
        reduced = self._blockwise_elimination(problem, structure)
        if reduced is not None:
            problem.elimination_cache = reduced
            # The seed is one-shot: once an elimination has consumed (or
            # rejected) it, keeping it would only retain dense basis copies
            # for blocks that may no longer exist after session edits —
            # unbounded growth over a long add/remove admission trace.
            problem.elimination_seed = None
        return reduced, True

    def _blockwise_elimination(
        self, problem: CompiledProblem, structure: BlockStructure
    ) -> Optional[_ReducedProblem]:
        """Per-block elimination producing a block-diagonal null-space basis.

        Every equality row is confined to one block (multi-block equalities
        drop the structure at compile time, and a program without one is a
        single block), so the null space factors per block: one small
        pivoted QR per application instead of one factorisation of the full
        equality matrix, and the per-block bases keep the reduced problem
        block partitioned without ever materialising the dense ``(n, k)``
        null-space matrix.  Returns ``None`` when a block's equalities are
        inconsistent.

        Blocks present in the problem's
        :attr:`~repro.solver.problem.CompiledProblem.elimination_seed` (bases
        carried over from a previous compiled problem by
        :func:`transfer_block_eliminations`) skip their QR when the seed's
        stored equality data matches this problem's — the incremental-session
        case where only the edited application's block pays for elimination.
        """
        b = problem.b
        seeds = problem.elimination_seed or {}
        computed = 0
        reused = 0
        x_p = np.zeros(problem.num_variables)
        basis_blocks: List[Optional[np.ndarray]] = []
        for block_index, (start, stop) in enumerate(structure.ranges):
            rows = np.flatnonzero(structure.equality_blocks == block_index)
            basis: Optional[np.ndarray] = None  # identity: keeps all variables
            if rows.size:
                A_block = _eq_block(problem, rows, start, stop)
                b_block = b[rows]
                seed = seeds.get(block_index)
                if (
                    isinstance(seed, _BlockEliminationSeed)
                    and seed.A_block.shape == A_block.shape
                    and np.array_equal(seed.A_block, A_block)
                    and np.array_equal(seed.b_block, b_block)
                ):
                    x_p[start:stop] = seed.x_block
                    basis = seed.basis
                    reused += 1
                else:
                    result = _block_nullspace(A_block, b_block)
                    if result is None:
                        return None
                    x_p[start:stop], basis = result
                    computed += 1
            basis_blocks.append(basis)
        return _ReducedProblem(
            x_p,
            structure,
            basis_blocks,
            blocks_computed=computed,
            blocks_reused=reused,
        )

    def _structure_enabled(self, reduced: _ReducedProblem) -> bool:
        """Whether the structured kernel computes this solve's Newton steps.

        It needs at least two blocks and a coupling narrow enough that the
        Schur complement stays far smaller than the full system; otherwise
        (one block above all) the dense kernel is faster.
        """
        structure = reduced.structure
        if reduced.dimension == 0:
            return False
        coupling = int(structure.coupling_rows.size)
        return structure.num_blocks >= 2 and coupling <= max(
            4, reduced.dimension // 2
        )

    def _workspace(
        self, plan: _StructurePlan, k: int, structured: bool
    ) -> Union[_DenseWorkspace, _StructuredWorkspace]:
        """The Newton kernel for ``plan`` over ``k`` coordinates."""
        if structured:
            return _StructuredWorkspace(plan, k, self.options, self._sparse_stats)
        return _DenseWorkspace(plan, k, self.options)

    def _reduced_pieces(
        self, problem: CompiledProblem, reduced: _ReducedProblem
    ) -> _ReducedPieces:
        """Reduce each block's constraints through its own null-space basis.

        Equivalent to the ``G @ N`` reduction of the whole problem, but block
        by block: with a block-diagonal basis, a block-local row only meets
        its own basis columns, so each product is narrow — the reduction
        cost drops from ``O(rows·n·k)`` to the sum of the per-block products.

        The basis projections depend only on ``G``/cone data and the cached
        elimination, so they are computed once per compiled problem
        (:class:`_PiecesCache` on the reduced problem); each solve refreshes
        only the ``h``-derived right-hand sides — the one array parametric
        re-solves mutate.
        """
        cache = reduced.pieces_cache
        #: whether this solve reused the cached basis projections (surfaced
        #: as the ``pieces_cache_reused`` stat → SessionStats sparse reuse)
        self._pieces_cache_hit = cache is not None
        if cache is None:
            cache = self._build_pieces_cache(problem, reduced)
            reduced.pieces_cache = cache
        linear = [
            (G, problem.h[rows] - offset)
            for G, rows, offset in zip(
                cache.block_G, cache.block_rows, cache.block_offsets
            )
        ]
        if cache.coupling_rows.size:
            coupling = (
                cache.coupling_G,
                problem.h[cache.coupling_rows] - cache.coupling_offset,
            )
        else:
            coupling = (cache.coupling_G, np.zeros(0))
        return _ReducedPieces(
            linear=linear, hyps=cache.hyps, cones=cache.cones, coupling=coupling
        )

    def _build_pieces_cache(
        self, problem: CompiledProblem, reduced: _ReducedProblem
    ) -> _PiecesCache:
        structure = reduced.structure
        xp = reduced.x_particular
        block_rows: List[np.ndarray] = []
        block_G: List[np.ndarray] = []
        block_offsets: List[np.ndarray] = []
        hyps: List[List[CompiledHyperbolic]] = []
        cones: List[List[CompiledCone]] = []
        coupling_parts: List[np.ndarray] = []
        coupling_rows = structure.coupling_rows
        # Group constraints by owning block up front (one pass each) instead
        # of scanning every constraint once per block.
        hyps_by_block: Dict[int, List[CompiledHyperbolic]] = {}
        for hyp, owner in zip(problem.hyperbolic, structure.hyperbolic_blocks):
            hyps_by_block.setdefault(owner, []).append(hyp)
        cones_by_block: Dict[int, List[CompiledCone]] = {}
        for cone, owner in zip(problem.cones, structure.cone_blocks):
            cones_by_block.setdefault(owner, []).append(cone)
        for block_index, ((start, stop), slc) in enumerate(
            zip(structure.ranges, reduced.block_slices)
        ):
            basis = reduced.basis_for(block_index)
            basis_width = slc.stop - slc.start
            xp_block = xp[start:stop]
            rows = np.flatnonzero(structure.row_blocks == block_index)
            block_rows.append(rows)
            if rows.size:
                G_narrow = _ineq_block(problem, rows, start, stop)
                block_G.append(G_narrow if basis is None else G_narrow @ basis)
                block_offsets.append(G_narrow @ xp_block)
            else:
                block_G.append(np.zeros((0, basis_width)))
                block_offsets.append(np.zeros(0))

            def reduce_row(vec: np.ndarray) -> np.ndarray:
                narrow = vec[start:stop]
                return narrow.copy() if basis is None else narrow @ basis

            hyps.append(
                [
                    CompiledHyperbolic(
                        p=reduce_row(hyp.p),
                        p0=float(hyp.p[start:stop] @ xp_block + hyp.p0),
                        q=reduce_row(hyp.q),
                        q0=float(hyp.q[start:stop] @ xp_block + hyp.q0),
                        bound=hyp.bound,
                    )
                    for hyp in hyps_by_block.get(block_index, [])
                ]
            )
            cones.append(
                [
                    CompiledCone(
                        A=(
                            cone.A[:, start:stop].copy()
                            if basis is None
                            else cone.A[:, start:stop] @ basis
                        ),
                        b=cone.A[:, start:stop] @ xp_block + cone.b,
                        c=reduce_row(cone.c),
                        d=float(cone.c[start:stop] @ xp_block + cone.d),
                    )
                    for cone in cones_by_block.get(block_index, [])
                ]
            )
            if coupling_rows.size:
                Gc_narrow = _ineq_block(problem, coupling_rows, start, stop)
                coupling_parts.append(
                    Gc_narrow if basis is None else Gc_narrow @ basis
                )
        if coupling_rows.size:
            coupling_G = np.hstack(coupling_parts)
            coupling_offset = np.asarray(
                problem._apply_G(xp)[coupling_rows], dtype=float
            )
        else:
            coupling_G = np.zeros((0, reduced.dimension))
            coupling_offset = np.zeros(0)
        return _PiecesCache(
            block_rows=block_rows,
            block_G=block_G,
            block_offsets=block_offsets,
            hyps=hyps,
            cones=cones,
            coupling_rows=coupling_rows,
            coupling_G=coupling_G,
            coupling_offset=coupling_offset,
        )

    def _phase_two_plan(
        self, pieces: _ReducedPieces, reduced: _ReducedProblem
    ) -> _StructurePlan:
        """Phase-II (borderless) plan: narrow per-block terms + coupling rows."""
        k = reduced.dimension
        block_terms: List[List[_BarrierTerm]] = []
        for (G, h), hyp_list, cone_list, slc in zip(
            pieces.linear, pieces.hyps, pieces.cones, reduced.block_slices
        ):
            support = _block_support(slc, k, border=0)
            block_index = len(block_terms)
            terms: List[_BarrierTerm] = []
            if G.shape[0]:
                terms.append(_LinearBlock(G, h, support=support, block=block_index))
            if hyp_list:
                terms.append(
                    _HyperbolicBlock(hyp_list, support=support, block=block_index)
                )
            terms.extend(_cone_blocks(cone_list, support=support, block=block_index))
            block_terms.append(terms)
        Gc, hc = pieces.coupling
        coupling = _LinearBlock(Gc, hc) if Gc.shape[0] else None
        return _StructurePlan(
            block_slices=list(reduced.block_slices),
            border=0,
            block_terms=block_terms,
            coupling=coupling,
        )

    def _initial_reduced_point(
        self,
        problem: CompiledProblem,
        reduced: _ReducedProblem,
        initial_point: Optional[np.ndarray],
    ) -> np.ndarray:
        if initial_point is not None:
            x0 = np.asarray(initial_point, dtype=float)
            # Project onto the affine subspace of the equality constraints
            # (blockwise — no dense (n, k) factorisation).
            return reduced.project(x0)
        return np.zeros(reduced.dimension)

    # -- phase I -----------------------------------------------------------------
    def _phase_one(
        self,
        problem: CompiledProblem,
        reduced: _ReducedProblem,
        pieces: _ReducedPieces,
        structured: bool,
        z0: np.ndarray,
        fallbacks: Sequence[np.ndarray] = (),
    ) -> Tuple[Optional[np.ndarray], float, Dict[str, object]]:
        """Find a strictly feasible reduced point, or report infeasibility.

        ``z0`` and then each entry of ``fallbacks`` is checked for strict
        feasibility; the first hit skips the phase entirely.  Otherwise the
        auxiliary relaxation program runs from ``z0`` on the same Newton
        kernel as phase II (``structured``); the relaxation variable ``t``
        becomes the one-column *border* of the arrow system, since every
        relaxed constraint touches it.

        Returns the feasible reduced point (or ``None``), the final
        infeasibility measure, and phase-I statistics (whether the phase was
        skipped because a candidate was already strictly feasible, and how
        many Newton iterations the auxiliary program took).

        The phase-I program is ``min t`` over ``(z, t)`` subject to every
        constraint relaxed by ``t``:

        * linear:      ``g·x − h ≤ t``
        * hyperbolic:  ``‖(2√w, p − q)‖ ≤ p + q + t``   (SOC form)
        * SOC:         ``‖u(x)‖ ≤ v(x) + t``
        """
        opts = self.options
        x0 = reduced.lift(z0)
        needed = self._required_relaxation(problem, x0)
        if needed < -opts.feasibility_margin:
            return z0, needed, {"skipped": True, "newton_iterations": 0}
        for candidate in fallbacks:
            required = self._required_relaxation(problem, reduced.lift(candidate))
            if required < -opts.feasibility_margin:
                return candidate, required, {"skipped": True, "newton_iterations": 0}

        k = reduced.dimension
        # Keep the phase-I objective bounded below.
        lower_bound = -max(1.0, abs(needed))
        plan = self._phase_one_plan(reduced, pieces, lower_bound)

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
            self._workspace(plan, k + 1, structured),
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

    def _phase_one_plan(
        self,
        reduced: _ReducedProblem,
        pieces: _ReducedPieces,
        lower_bound: float,
    ) -> _StructurePlan:
        """Narrow phase-I terms over ``(z, t)``: ``t`` is the arrow's border.

        Each relaxed constraint stays local to its block plus the shared
        relaxation column, so block ``b``'s terms live in the coordinates
        ``[block b, t]`` and the per-block factorisation carries over to
        phase I unchanged; the coupling rows (now with a ``−t`` column) go
        through the Schur complement as before.
        """
        k = reduced.dimension
        block_terms: List[List[_BarrierTerm]] = []
        for block_index, ((G, h), hyp_list, cone_list, slc) in enumerate(
            zip(pieces.linear, pieces.hyps, pieces.cones, reduced.block_slices)
        ):
            width = slc.stop - slc.start
            support = _block_support(slc, k, border=1)
            terms: List[_BarrierTerm] = []
            rows: List[np.ndarray] = []
            rhs: List[np.ndarray] = []
            if G.shape[0]:
                rows.append(np.hstack([G, -np.ones((G.shape[0], 1))]))
                rhs.append(h)
            if block_index == 0:
                # The phase-I objective's lower bound (−t ≤ −lower_bound):
                # border-only, homed in the first block's local term.
                rows.append(
                    np.concatenate([np.zeros(width), [-1.0]]).reshape(1, -1)
                )
                rhs.append(np.array([-lower_bound]))
            if rows:
                terms.append(
                    _LinearBlock(
                        np.vstack(rows),
                        np.concatenate(rhs),
                        support=support,
                        block=block_index,
                    )
                )
            phase_cones: List[CompiledCone] = []
            for hyp in hyp_list:
                p_row = np.concatenate([hyp.p, [0.0]])
                q_row = np.concatenate([hyp.q, [0.0]])
                A = np.vstack([np.zeros(width + 1), p_row - q_row])
                b = np.array([2.0 * math.sqrt(hyp.bound), hyp.p0 - hyp.q0])
                c = p_row + q_row
                c[-1] = 1.0
                phase_cones.append(
                    CompiledCone(A=A, b=b, c=c, d=hyp.p0 + hyp.q0, name="phase1")
                )
            for cone in cone_list:
                phase_cones.append(
                    CompiledCone(
                        A=np.hstack([cone.A, np.zeros((cone.A.shape[0], 1))]),
                        b=cone.b,
                        c=np.concatenate([cone.c, [1.0]]),
                        d=cone.d,
                        name="phase1",
                    )
                )
            terms.extend(
                _cone_blocks(phase_cones, support=support, block=block_index)
            )
            block_terms.append(terms)
        Gc, hc = pieces.coupling
        coupling = None
        if Gc.shape[0]:
            coupling = _LinearBlock(
                np.hstack([Gc, -np.ones((Gc.shape[0], 1))]), hc
            )
        return _StructurePlan(
            block_slices=list(reduced.block_slices),
            border=1,
            block_terms=block_terms,
            coupling=coupling,
        )

    def _required_relaxation(self, problem: CompiledProblem, x: np.ndarray) -> float:
        """Smallest ``t`` that makes ``x`` strictly feasible for the relaxed problem."""
        needed = -math.inf
        if problem.h.size:
            needed = max(needed, float(np.max(problem._apply_G(x) - problem.h)))
        for hyp in problem.hyperbolic:
            p = float(hyp.p @ x + hyp.p0)
            q = float(hyp.q @ x + hyp.q0)
            norm = math.hypot(2.0 * math.sqrt(hyp.bound), p - q)
            needed = max(needed, norm - (p + q))
        for cone in problem.cones:
            u = cone.A @ x + cone.b
            v = float(cone.c @ x + cone.d)
            needed = max(needed, float(np.linalg.norm(u)) - v)
        if needed == -math.inf:
            needed = -1.0
        return needed

    # -- core barrier loop -----------------------------------------------------------
    def _barrier_minimise(
        self,
        c: np.ndarray,
        workspace: Union[_DenseWorkspace, _StructuredWorkspace],
        z0: np.ndarray,
        early_stop=None,
        gap_tolerance: Optional[float] = None,
        initial_barrier: Optional[float] = None,
    ) -> _CenteringResult:
        """Minimise ``c·z`` over the strictly feasible region of the workspace's plan.

        ``initial_barrier`` starts the rung schedule at a raised barrier
        parameter (warm-started re-solves); callers select it via
        :meth:`_select_warm_rung` so it stays on the cold schedule's geometric
        grid and short of the cold stopping rung — the run then ends on the
        same rung as a cold solve and returns the same central-path point to
        Newton tolerance.
        """
        opts = self.options
        tolerance = opts.tolerance if gap_tolerance is None else gap_tolerance
        terms = workspace.plan.terms
        m = sum(term.count for term in terms)
        z = np.asarray(z0, dtype=float).copy()

        if any(term.slack(z) <= 0.0 for term in terms):
            # The caller is responsible for strict feasibility of z0.
            return _CenteringResult(
                z, SolverStatus.NUMERICAL_ERROR, 0, 0, opts.initial_barrier
            )

        t_barrier = opts.initial_barrier
        if initial_barrier is not None:
            t_barrier = max(opts.initial_barrier, float(initial_barrier))
        outer = 0
        newton_total = 0
        first_center: Optional[np.ndarray] = None
        converged = True
        status = SolverStatus.MAX_ITERATIONS
        while outer < opts.max_outer_iterations:
            outer += 1
            with obs_span("rung") as rung_span:
                z, newton, converged = self._newton_minimise(
                    c, workspace, z, t_barrier, early_stop
                )
                rung_span.set(barrier=float(t_barrier), newton_iterations=int(newton))
            newton_total += newton
            if outer == 1 and t_barrier == opts.initial_barrier:
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
            z, status, outer, newton_total, t_barrier, first_center, converged
        )

    def _select_warm_rung(
        self,
        c: np.ndarray,
        workspace: Union[_DenseWorkspace, _StructuredWorkspace],
        z: np.ndarray,
        requested: float,
        m: int,
        tolerance: float,
    ) -> float:
        """Pick the starting barrier parameter for a warm-started phase II.

        Starting from ``requested`` (kept on the geometric ``initial_barrier ·
        barrier_increaseᵏ`` grid by the caller), the rung is lowered until

        * it does not lie beyond the rung a cold solve would stop at (so the
          final central-path point matches a cold solve), and
        * the Newton decrement of the centering problem at ``z`` is small
          enough that centering converges in a few steps — a warm point far
          from the new optimum fails this at every rung and falls back to a
          plain cold start at ``initial_barrier``.  A rung that still fails
          to center trips the caller's convergence guard and falls back to a
          cold run.

        Each candidate rung costs one Newton direction of the workspace's
        kernel.
        """
        opts = self.options
        t_barrier = max(opts.initial_barrier, requested)
        gap_start = tolerance * max(1.0, abs(float(c @ z)))
        while (
            t_barrier > opts.initial_barrier
            and m / (t_barrier / opts.barrier_increase) < gap_start
        ):
            t_barrier /= opts.barrier_increase

        while t_barrier > opts.initial_barrier:
            grad, direction = workspace.direction(z, t_barrier * c)
            if float(-grad @ direction) <= opts.warm_rung_decrement:
                return t_barrier
            t_barrier /= opts.barrier_increase
        return opts.initial_barrier

    def _newton_minimise(
        self,
        c: np.ndarray,
        workspace: Union[_DenseWorkspace, _StructuredWorkspace],
        z: np.ndarray,
        t_barrier: float,
        early_stop=None,
    ) -> Tuple[np.ndarray, int, bool]:
        """Damped Newton minimisation of ``t_barrier·c·z + Σ −log(slack_i)``.

        The workspace's kernel supplies each Newton direction and the merit.
        The backtracking line search evaluates each trial point's slacks
        exactly once (the merit folds the strict-feasibility check and the
        barrier value into one pass, and the accepted value is carried into
        the next iteration), and compares merit *differences* rather than
        absolute merits: the linear part of the merit is ``t_barrier·cᵀz`` —
        at the final barrier rungs its magnitude dwarfs the per-step
        improvement, so the absolute comparison drowns in floating-point
        cancellation and the centering stalls short of its decrement target.
        The difference form ``t·step·(cᵀd) + Δφ`` is cancellation-free.

        Returns the final point, the number of Newton iterations spent, and
        whether the run converged (met its decrement target or stalled in the
        line search) rather than exhausting the iteration budget.
        """
        opts = self.options
        current_phi: Optional[float] = None
        for iteration in range(opts.max_newton_iterations):
            grad, direction = workspace.direction(z, t_barrier * c)
            decrement = float(-grad @ direction)
            if decrement / 2.0 <= opts.newton_tolerance * max(1.0, t_barrier):
                return z, iteration, True

            # Backtracking line search maintaining strict feasibility; an
            # infeasible trial point has barrier value +inf and is rejected
            # by the sufficient-decrease test without a second slack
            # evaluation.
            if current_phi is None:
                current_phi = workspace.merit(z)
            linear_slope = t_barrier * float(c @ direction)
            step = 1.0
            while step > 1e-14:
                candidate = z + step * direction
                candidate_phi = workspace.merit(candidate)
                delta = step * linear_slope + (candidate_phi - current_phi)
                if delta <= -opts.line_search_alpha * step * decrement:
                    break
                step *= opts.line_search_beta
            else:
                return z, iteration + 1, True
            z = candidate
            current_phi = candidate_phi
            if early_stop is not None and early_stop(z):
                return z, iteration + 1, True
        return z, opts.max_newton_iterations, False


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
