"""Problem container and compilation to numerical form.

:class:`ConeProgram` is the modelling entry point of the optimisation
substrate: variables and constraints are registered on it, an affine
objective is chosen, and :meth:`ConeProgram.solve` dispatches to one of the
backends (:mod:`repro.solver.barrier`, :mod:`repro.solver.linprog_backend`,
:mod:`repro.solver.scipy_backend`).

The numerical backends do not operate on the symbolic objects directly;
:meth:`ConeProgram.compile` lowers the program into a
:class:`CompiledProblem` made of CSR and dense numpy arrays:

* objective vector ``c`` and offset ``c0``,
* inequalities ``G·x ≤ h`` (variable bounds folded in),
* equalities ``A·x = b``,
* hyperbolic constraints as coefficient-vector tuples,
* second-order cone constraints as matrix/vector tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from scipy import sparse as _sparse

from repro.exceptions import FormulationError
from repro.obs.trace import span as obs_span
from repro.solver.constraints import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    HyperbolicConstraint,
    LinearConstraint,
    SecondOrderConeConstraint,
)
from repro.solver.expression import (
    AffineExpression,
    ExpressionLike,
    Variable,
    linear_sum,
)
from repro.solver.result import Solution

Constraint = Union[LinearConstraint, HyperbolicConstraint, SecondOrderConeConstraint]


def bounds_collapse(lower: float, upper: float) -> bool:
    """Bounds close enough that compilation emits an equality row.

    The single definition shared by :meth:`ConeProgram.compile` and the
    parametric layers (:class:`repro.core.formulation.
    ParametricSocpFormulation` detects this case to fall back to a rebuild,
    since an equality row cannot be produced by mutating inequality
    right-hand sides).
    """
    return abs(upper - lower) <= 1e-12 * max(1.0, abs(lower))


@dataclass
class CompiledHyperbolic:
    """Numerical form of ``(p·x + p0)·(q·x + q0) ≥ bound``."""

    p: np.ndarray
    p0: float
    q: np.ndarray
    q0: float
    bound: float
    name: str = ""


@dataclass
class CompiledCone:
    """Numerical form of ``‖A·x + b‖₂ ≤ c·x + d``."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    name: str = ""


@dataclass
class BlockStructure:
    """Block partition of a compiled problem's variables and constraints.

    Emitted by :meth:`ConeProgram.compile` when the program declared variable
    blocks (:meth:`ConeProgram.declare_blocks`) — per-application blocks in
    :class:`repro.core.formulation._BlockAssembly` — and every non-linear and
    equality constraint turned out to be confined to a single block.  The
    barrier backend uses it to eliminate equalities blockwise and, for two
    or more blocks with narrow coupling, to solve each Newton step with
    block-Cholesky factorisations + a Schur complement on the
    arrow-structured KKT system (see
    :class:`repro.solver.barrier.BarrierSolver`).

    ``ranges`` are half-open variable index ranges, one per block, covering
    every variable exactly once in order.  ``row_blocks`` assigns each
    inequality row the block its support lies in, with ``-1`` marking the
    *coupling rows* whose support spans several blocks (the shared processor
    and memory capacity rows of a workload program).
    """

    ranges: List[Tuple[int, int]]
    row_blocks: np.ndarray          #: block per inequality row; -1 = coupling
    equality_blocks: np.ndarray     #: block per equality row (always single-block)
    hyperbolic_blocks: List[int]    #: block per hyperbolic constraint
    cone_blocks: List[int]          #: block per SOC constraint

    @property
    def num_blocks(self) -> int:
        return len(self.ranges)

    @property
    def coupling_rows(self) -> np.ndarray:
        """Indices of the inequality rows whose support spans several blocks."""
        return np.flatnonzero(self.row_blocks < 0)


class CompiledProblem:
    """Numerical representation of a :class:`ConeProgram`.

    The constraint matrices ``G`` (inequalities) and ``A`` (equalities) are
    stored in CSR form — for workload programs they are extremely sparse (a few entries per row against thousands of columns)
    and the block-Newton solver consumes them blockwise.  The dense views
    remain available as the :attr:`G` / :attr:`A` properties, densified
    lazily and cached, so backends and tests that want plain arrays keep
    working; sparse-aware code uses :attr:`G_sparse` / :attr:`A_sparse`.

    ``h`` and ``b`` stay plain mutable ndarrays: the parametric layer
    (:class:`repro.solver.parametric.ParametricProblem`) re-solves a compiled
    program by mutating ``h`` rows in place.
    """

    def __init__(
        self,
        variables: List[Variable],
        c: np.ndarray,
        c0: float,
        G: object,
        h: np.ndarray,
        A: object,
        b: np.ndarray,
        hyperbolic: List[CompiledHyperbolic],
        cones: List[CompiledCone],
        inequality_names: Optional[List[str]] = None,
        block_structure: Optional[BlockStructure] = None,
    ) -> None:
        self.variables = variables
        self.c = c
        self.c0 = c0
        self.h = h
        self.b = b
        self.hyperbolic = hyperbolic
        self.cones = cones
        self.inequality_names = list(inequality_names or [])
        #: Optional per-application block partition (see
        #: :class:`BlockStructure`); ``None`` for unstructured programs,
        #: which the barrier backend solves as a single block.
        self.block_structure = block_structure
        #: Cache of the equality-elimination result (particular point +
        #: null-space basis), written by the barrier backend on first use.
        #: Valid as long as ``A`` and ``b`` are unchanged — parametric
        #: re-solves mutate only ``h``, so warm-started sessions reuse one
        #: elimination across every solve.
        self.elimination_cache: Optional[object] = None
        #: Optional per-block elimination seed (block index → validated basis
        #: carried over from a *different* compiled problem), installed by
        #: :func:`repro.solver.barrier.transfer_block_eliminations` when a
        #: session is edited incrementally.  The blockwise elimination
        #: verifies each seeded block's equality data before reusing its
        #: basis, then drops the seed so retired blocks cannot accumulate.
        self.elimination_seed: Optional[Dict[int, object]] = None
        self._G_dense: Optional[np.ndarray] = None
        self._A_dense: Optional[np.ndarray] = None
        self._G_sparse = None
        self._A_sparse = None
        if _sparse.issparse(G):
            self._G_sparse = G.tocsr()
        else:
            self._G_dense = np.asarray(G, dtype=float)
        if _sparse.issparse(A):
            self._A_sparse = A.tocsr()
        else:
            self._A_dense = np.asarray(A, dtype=float)

    # -- constraint matrix views ------------------------------------------
    @property
    def G(self) -> np.ndarray:
        """Dense inequality matrix (densified lazily from CSR, then cached)."""
        if self._G_dense is None:
            self._G_dense = self._G_sparse.toarray()
        return self._G_dense

    @property
    def A(self) -> np.ndarray:
        """Dense equality matrix (densified lazily from CSR, then cached)."""
        if self._A_dense is None:
            self._A_dense = self._A_sparse.toarray()
        return self._A_dense

    @property
    def G_sparse(self):
        """CSR inequality matrix (built lazily from a dense ``G``)."""
        if self._G_sparse is None:
            self._G_sparse = _sparse.csr_matrix(self._G_dense)
        return self._G_sparse

    @property
    def A_sparse(self):
        """CSR equality matrix (built lazily from a dense ``A``)."""
        if self._A_sparse is None:
            self._A_sparse = _sparse.csr_matrix(self._A_dense)
        return self._A_sparse

    @property
    def constraint_nnz(self) -> int:
        """Stored non-zeros across ``G`` and ``A`` (sparse-backend telemetry)."""
        total = 0
        for sparse_mat, dense_mat in (
            (self._G_sparse, self._G_dense),
            (self._A_sparse, self._A_dense),
        ):
            if sparse_mat is not None:
                total += int(sparse_mat.nnz)
            elif dense_mat is not None:
                total += int(np.count_nonzero(dense_mat))
        return total

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def index_of(self, variable: Variable) -> int:
        try:
            return self._index[variable]
        except AttributeError:
            self._index = {var: i for i, var in enumerate(self.variables)}
            return self._index[variable]

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x + self.c0)

    def point_as_mapping(self, x: np.ndarray) -> Dict[Variable, float]:
        return {var: float(x[i]) for i, var in enumerate(self.variables)}

    def vector_from_mapping(
        self, values: Mapping[Variable, float], default: float = 0.0
    ) -> np.ndarray:
        x = np.full(self.num_variables, float(default))
        for i, var in enumerate(self.variables):
            if var in values:
                x[i] = float(values[var])
        return x

    # -- feasibility inspection -------------------------------------------
    def _apply_G(self, x: np.ndarray) -> np.ndarray:
        """``G @ x`` via whichever representation is already materialised."""
        matrix = self._G_sparse if self._G_dense is None else self._G_dense
        return matrix @ x

    def _apply_A(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` via whichever representation is already materialised."""
        matrix = self._A_sparse if self._A_dense is None else self._A_dense
        return matrix @ x

    def max_linear_violation(self, x: np.ndarray) -> float:
        violation = 0.0
        if self.h.size:
            violation = max(violation, float(np.max(self._apply_G(x) - self.h)))
        if self.b.size:
            violation = max(violation, float(np.max(np.abs(self._apply_A(x) - self.b))))
        return violation

    def min_cone_margin(self, x: np.ndarray) -> float:
        margin = np.inf
        for hyp in self.hyperbolic:
            p = float(hyp.p @ x + hyp.p0)
            q = float(hyp.q @ x + hyp.q0)
            margin = min(margin, p * q - hyp.bound, p, q)
        for cone in self.cones:
            u = cone.A @ x + cone.b
            v = float(cone.c @ x + cone.d)
            margin = min(margin, v - float(np.linalg.norm(u)))
        return margin


class ConeProgram:
    """A convex optimisation problem with linear and second-order cone constraints."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._names: Dict[str, Variable] = {}
        self._linear: List[LinearConstraint] = []
        self._hyperbolic: List[HyperbolicConstraint] = []
        self._cones: List[SecondOrderConeConstraint] = []
        self._objective: AffineExpression = AffineExpression()
        self._sense: str = "min"
        self._block_groups: Optional[List[Tuple[Variable, ...]]] = None

    # -- variables ---------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> Variable:
        """Create and register a decision variable with optional bounds."""
        if name in self._names:
            raise FormulationError(f"duplicate variable name {name!r}")
        variable = Variable(name, lower, upper)
        self._variables.append(variable)
        self._names[name] = variable
        return variable

    def variable(self, name: str) -> Variable:
        """Look up a registered variable by name."""
        try:
            return self._names[name]
        except KeyError:
            raise FormulationError(f"unknown variable {name!r}") from None

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        """Number of registered variables (without copying the tuple)."""
        return len(self._variables)

    def variable_slice(self, start: int, stop: Optional[int] = None) -> Tuple[Variable, ...]:
        """The registered variables in ``[start, stop)``.

        Block assembly snapshots each application's variable group right
        after registering it; going through this accessor instead of the
        :attr:`variables` property keeps that loop linear — the property
        copies the *entire* variable list on every access, which is
        quadratic over hundreds of applications.
        """
        return tuple(self._variables[start:stop])

    def declare_blocks(self, groups: Sequence[Sequence[Variable]]) -> None:
        """Declare a block partition of the variables for the solver.

        ``groups`` lists the variables of each block (per application, in the
        workload formulation).  :meth:`compile` turns the declaration into a
        :class:`BlockStructure` when the groups partition the variables into
        contiguous index ranges and every equality / hyperbolic / SOC
        constraint is confined to one block; otherwise the compiled problem
        simply carries no structure and the solver treats it as one block,
        so declaring blocks is always safe.
        """
        for group in groups:
            for var in group:
                if self._names.get(var.name) is not var:
                    raise FormulationError(
                        f"block declaration references variable {var.name!r} "
                        f"that is not registered with program {self.name!r}"
                    )
        self._block_groups = [tuple(group) for group in groups]

    # -- constraints --------------------------------------------------------
    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Register an already-constructed constraint object."""
        if isinstance(constraint, LinearConstraint):
            self._check_known_variables(constraint.expression)
            self._linear.append(constraint)
        elif isinstance(constraint, HyperbolicConstraint):
            self._check_known_variables(constraint.x)
            self._check_known_variables(constraint.y)
            self._hyperbolic.append(constraint)
        elif isinstance(constraint, SecondOrderConeConstraint):
            for row in constraint.rows:
                self._check_known_variables(row)
            self._check_known_variables(constraint.rhs)
            self._cones.append(constraint)
        else:
            raise FormulationError(
                f"unsupported constraint type {type(constraint).__name__}"
            )
        return constraint

    def add_linear(
        self,
        lhs: ExpressionLike,
        sense: str,
        rhs: ExpressionLike,
        name: Optional[str] = None,
    ) -> LinearConstraint:
        """Add an affine constraint ``lhs <sense> rhs``."""
        constraint = LinearConstraint(lhs, sense, rhs, name=name)
        return self.add_constraint(constraint)  # type: ignore[return-value]

    def add_less_equal(
        self, lhs: ExpressionLike, rhs: ExpressionLike, name: Optional[str] = None
    ) -> LinearConstraint:
        return self.add_linear(lhs, LESS_EQUAL, rhs, name=name)

    def add_greater_equal(
        self, lhs: ExpressionLike, rhs: ExpressionLike, name: Optional[str] = None
    ) -> LinearConstraint:
        return self.add_linear(lhs, GREATER_EQUAL, rhs, name=name)

    def add_equality(
        self, lhs: ExpressionLike, rhs: ExpressionLike, name: Optional[str] = None
    ) -> LinearConstraint:
        return self.add_linear(lhs, EQUAL, rhs, name=name)

    def add_hyperbolic(
        self,
        x: ExpressionLike,
        y: ExpressionLike,
        bound: float = 1.0,
        name: Optional[str] = None,
    ) -> HyperbolicConstraint:
        """Add the convex constraint ``x·y ≥ bound`` (``x, y > 0``)."""
        constraint = HyperbolicConstraint(x, y, bound, name=name)
        return self.add_constraint(constraint)  # type: ignore[return-value]

    def add_second_order_cone(
        self,
        rows: Sequence[ExpressionLike],
        rhs: ExpressionLike,
        name: Optional[str] = None,
    ) -> SecondOrderConeConstraint:
        """Add the constraint ``‖rows‖₂ ≤ rhs``."""
        constraint = SecondOrderConeConstraint(rows, rhs, name=name)
        return self.add_constraint(constraint)  # type: ignore[return-value]

    @property
    def linear_constraints(self) -> Tuple[LinearConstraint, ...]:
        return tuple(self._linear)

    @property
    def hyperbolic_constraints(self) -> Tuple[HyperbolicConstraint, ...]:
        return tuple(self._hyperbolic)

    @property
    def cone_constraints(self) -> Tuple[SecondOrderConeConstraint, ...]:
        return tuple(self._cones)

    @property
    def is_linear(self) -> bool:
        """True when the program contains no cone constraints (pure LP)."""
        return not self._hyperbolic and not self._cones

    # -- objective -----------------------------------------------------------
    def minimize(self, expression: ExpressionLike) -> None:
        """Set the objective to minimise the given affine expression."""
        expr = AffineExpression.coerce(expression)
        self._check_known_variables(expr)
        self._objective = expr
        self._sense = "min"

    def maximize(self, expression: ExpressionLike) -> None:
        """Set the objective to maximise the given affine expression."""
        expr = AffineExpression.coerce(expression)
        self._check_known_variables(expr)
        self._objective = expr
        self._sense = "max"

    @property
    def objective(self) -> AffineExpression:
        return self._objective

    @property
    def sense(self) -> str:
        return self._sense

    def _check_known_variables(self, expression: AffineExpression) -> None:
        for var in expression.variables():
            if self._names.get(var.name) is not var:
                raise FormulationError(
                    f"expression references variable {var.name!r} that is not "
                    f"registered with program {self.name!r}"
                )

    # -- compilation -----------------------------------------------------------
    def _vectorise(self, expression: AffineExpression, index: Dict[Variable, int]) -> Tuple[np.ndarray, float]:
        row = np.zeros(len(self._variables))
        for var, coeff in expression.terms.items():
            row[index[var]] = coeff
        return row, expression.constant

    @staticmethod
    def _build_rows(
        rows: List[Tuple[List[int], List[float]]], n: int
    ) -> object:
        """Stack sparse row triplets into a CSR matrix."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, (cols, _) in enumerate(rows):
            indptr[i + 1] = indptr[i] + len(cols)
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.empty(indptr[-1])
        for i, (cols, vals) in enumerate(rows):
            indices[indptr[i]:indptr[i + 1]] = cols
            data[indptr[i]:indptr[i + 1]] = vals
        matrix = _sparse.csr_matrix((data, indices, indptr), shape=(len(rows), n))
        matrix.sort_indices()
        return matrix

    def compile(self) -> CompiledProblem:
        """Lower the symbolic program into numerical (CSR + dense) form."""
        index = {var: i for i, var in enumerate(self._variables)}
        n = len(self._variables)

        # Objective (always converted to minimisation form).
        c, c0 = self._vectorise(self._objective, index)
        if self._sense == "max":
            c, c0 = -c, -c0

        g_rows: List[Tuple[List[int], List[float]]] = []
        h_vals: List[float] = []
        ineq_names: List[str] = []
        a_rows: List[Tuple[List[int], List[float]]] = []
        b_vals: List[float] = []

        def sparse_row(expression: AffineExpression) -> Tuple[List[int], List[float], float]:
            cols: List[int] = []
            vals: List[float] = []
            for var, coeff in expression.terms.items():
                if coeff != 0.0:
                    cols.append(index[var])
                    vals.append(float(coeff))
            return cols, vals, expression.constant

        # Variable bounds become inequality rows.  A variable whose bounds
        # coincide is emitted as an equality instead: two opposing
        # inequalities would leave the feasible region without an interior,
        # which the barrier method cannot handle.
        for var, i in index.items():
            if (
                var.lower is not None
                and var.upper is not None
                and bounds_collapse(var.lower, var.upper)
            ):
                a_rows.append(([i], [1.0]))
                b_vals.append(var.lower)
                continue
            if var.lower is not None:
                g_rows.append(([i], [-1.0]))
                h_vals.append(-var.lower)
                ineq_names.append(f"lb[{var.name}]")
            if var.upper is not None:
                g_rows.append(([i], [1.0]))
                h_vals.append(var.upper)
                ineq_names.append(f"ub[{var.name}]")

        for constraint in self._linear:
            cols, vals, const = sparse_row(constraint.expression)
            if constraint.is_equality:
                a_rows.append((cols, vals))
                b_vals.append(-const)
            else:
                # expression <= 0  ->  row @ x <= -const
                g_rows.append((cols, vals))
                h_vals.append(-const)
                ineq_names.append(constraint.name)

        hyperbolic = []
        for constraint in self._hyperbolic:
            p, p0 = self._vectorise(constraint.x, index)
            q, q0 = self._vectorise(constraint.y, index)
            hyperbolic.append(
                CompiledHyperbolic(p=p, p0=p0, q=q, q0=q0, bound=constraint.bound,
                                   name=constraint.name)
            )

        cones = []
        for constraint in self._cones:
            rows = [self._vectorise(row, index) for row in constraint.rows]
            A = np.vstack([r for r, _ in rows]) if rows else np.zeros((0, n))
            b = np.array([const for _, const in rows])
            cvec, d = self._vectorise(constraint.rhs, index)
            cones.append(CompiledCone(A=A, b=b, c=cvec, d=d, name=constraint.name))

        G = self._build_rows(g_rows, n)
        h = np.array(h_vals)
        A = self._build_rows(a_rows, n)
        b = np.array(b_vals)

        return CompiledProblem(
            variables=list(self._variables),
            c=c,
            c0=c0,
            G=G,
            h=h,
            A=A,
            b=b,
            hyperbolic=hyperbolic,
            cones=cones,
            inequality_names=ineq_names,
            block_structure=self._compile_block_structure(
                index, G, A, hyperbolic, cones
            ),
        )

    def _compile_block_structure(
        self,
        index: Dict[Variable, int],
        G: object,
        A: object,
        hyperbolic: List[CompiledHyperbolic],
        cones: List[CompiledCone],
    ) -> Optional[BlockStructure]:
        """Turn a :meth:`declare_blocks` declaration into a :class:`BlockStructure`.

        Returns ``None`` (no structure: the solver treats the program as one
        block) when no blocks were
        declared, when the groups do not form contiguous index ranges covering
        every variable, or when an equality / hyperbolic / SOC constraint
        spans several blocks — only *linear inequality* rows may couple
        blocks, because only their barrier Hessian contribution is the
        low-rank term the Schur-complement solve handles.

        Row/block membership is detected in O(nnz) straight from the CSR
        index arrays; no dense column scans, so compilation stays linear in
        the number of applications.
        """
        if not self._block_groups:
            return None
        n = len(self._variables)
        col_block = np.full(n, -1, dtype=int)
        ranges: List[Tuple[int, int]] = []
        for block_index, group in enumerate(self._block_groups):
            if not group:
                return None
            columns = sorted(index[var] for var in group)
            start, stop = columns[0], columns[-1] + 1
            if stop - start != len(columns) or np.any(col_block[start:stop] >= 0):
                return None
            col_block[start:stop] = block_index
            ranges.append((start, stop))
        if np.any(col_block < 0):
            return None

        def blocks_of(rows: np.ndarray) -> np.ndarray:
            """Distinct blocks touched by the support of stacked row vectors."""
            columns = np.flatnonzero(np.any(np.atleast_2d(rows) != 0.0, axis=0))
            return np.unique(col_block[columns])

        def single_block(rows: np.ndarray) -> Optional[int]:
            touched = blocks_of(rows)
            if touched.size > 1:
                return None
            return int(touched[0]) if touched.size else 0

        def row_block_spans(matrix: object) -> Tuple[np.ndarray, np.ndarray]:
            """Per-row (lowest, highest) touched block; empty rows give (0, 0)."""
            csr = matrix.tocsr()
            counts = np.diff(csr.indptr)
            lo = np.zeros(csr.shape[0], dtype=int)
            hi = np.zeros(csr.shape[0], dtype=int)
            nonempty = np.flatnonzero(counts > 0)
            if nonempty.size:
                entry_blocks = col_block[csr.indices]
                starts = csr.indptr[nonempty]
                # reduceat segments between consecutive non-empty row
                # starts cover exactly those rows' entries (empty rows
                # contribute no gap), so this is per-row min/max.
                lo[nonempty] = np.minimum.reduceat(entry_blocks, starts)
                hi[nonempty] = np.maximum.reduceat(entry_blocks, starts)
            return lo, hi

        g_lo, g_hi = row_block_spans(G)
        row_blocks = np.where(g_lo != g_hi, -1, g_lo).astype(int)
        a_lo, a_hi = row_block_spans(A)
        if np.any(a_lo != a_hi):
            return None
        equality_blocks = a_lo.astype(int)
        hyperbolic_blocks: List[int] = []
        for hyp in hyperbolic:
            block = single_block(np.vstack([hyp.p, hyp.q]))
            if block is None:
                return None
            hyperbolic_blocks.append(block)
        cone_blocks: List[int] = []
        for cone in cones:
            block = single_block(np.vstack([cone.A, cone.c.reshape(1, -1)]))
            if block is None:
                return None
            cone_blocks.append(block)
        return BlockStructure(
            ranges=ranges,
            row_blocks=row_blocks,
            equality_blocks=equality_blocks,
            hyperbolic_blocks=hyperbolic_blocks,
            cone_blocks=cone_blocks,
        )

    # -- solving -----------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        initial_point: Optional[Mapping[Variable, float]] = None,
        **options: object,
    ) -> Solution:
        """Solve the program and return a :class:`Solution`.

        Parameters
        ----------
        backend:
            ``"auto"`` (default) picks the LP backend for pure linear programs
            and the barrier interior-point method otherwise, falling back to
            the scipy backend if the barrier method fails to converge.
            ``"barrier"``, ``"linprog"`` and ``"scipy"`` force a backend.
        initial_point:
            Optional warm-start / strictly feasible hint keyed by variable.
        options:
            :class:`~repro.solver.barrier.BarrierOptions` fields; an unknown
            key raises :class:`~repro.exceptions.FormulationError`.
        """
        from repro.solver import backends

        with obs_span("compile", program=self.name) as compile_span:
            compiled = self.compile()
        with obs_span("solve", program=self.name, backend=backend) as solve_span:
            solution = backends.solve_compiled(
                compiled, backend=backend, initial_point=initial_point, options=dict(options)
            )
            solve_span.set(backend_used=solution.backend, status=solution.status.value)
        solution.solve_time = solve_span.seconds
        solution.stats = dict(solution.stats)
        solution.stats["compile_time"] = compile_span.seconds
        if self._sense == "max" and solution.objective is not None:
            solution.objective = -solution.objective
        return solution

    def parametric(self) -> "ParametricProblem":  # noqa: F821 - forward ref
        """Compile once and wrap the result for repeated parametric re-solve.

        Returns a :class:`repro.solver.parametric.ParametricProblem`; register
        named right-hand-side / bound parameters on it and drive it through a
        :class:`repro.solver.parametric.SolveSession` to solve a family of
        related programs without re-compiling.
        """
        from repro.solver.parametric import ParametricProblem

        return ParametricProblem(self)

    def session(self, backend: str = "auto", **options: object) -> "SolveSession":  # noqa: F821
        """Shorthand for ``SolveSession(self.parametric(), backend, options)``."""
        from repro.solver.parametric import SolveSession

        return SolveSession(self.parametric(), backend=backend, options=options)

    # -- convenience -------------------------------------------------------------
    def sum(self, values: Sequence[ExpressionLike]) -> AffineExpression:
        """Alias for :func:`repro.solver.expression.linear_sum`."""
        return linear_sum(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConeProgram({self.name!r}, variables={len(self._variables)}, "
            f"linear={len(self._linear)}, hyperbolic={len(self._hyperbolic)}, "
            f"cones={len(self._cones)})"
        )
