"""Problem container and compilation to numerical form.

:class:`ConeProgram` is the modelling entry point of the optimisation
substrate: variables are registered on it, constraints and an affine
objective are written over their positions, and :meth:`ConeProgram.solve`
dispatches to one of the backends (:mod:`repro.solver.barrier`,
:mod:`repro.solver.linprog_backend`, :mod:`repro.solver.scipy_backend`).

A program keeps its linear constraints, both sides of its hyperbolic
constraints and its objective as :class:`AffineRows`: affine rows in CSR
layout over the registered variable positions.  Model builders write a whole
constraint family at once (:meth:`ConeProgram.add_rows`,
:meth:`ConeProgram.add_hyperbolic_rows`); the objective is one row
(:meth:`ConeProgram.minimize`).  :meth:`ConeProgram.compile` lowers them
into a :class:`CompiledProblem` made of numpy arrays, concatenating the
stored rows:

* objective vector ``c`` and offset ``c0``,
* inequalities ``G·x ≤ h`` as a :class:`CsrMatrix` (variable bounds folded
  in),
* hyperbolic constraints as two :class:`CsrMatrix` ``P``/``Q`` with one
  row per term, plus the offset and bound vectors
  (:class:`CompiledHyperbolic`).

:class:`CsrMatrix` is a small record of CSR arrays, not a
``scipy.sparse`` matrix: the allocation path imports no part of
``scipy.sparse``.

A compiled problem has no equality rows.  The one equality a program can
state is a variable whose bounds collapse (:func:`bounds_collapse`);
compilation replaces such a variable by its value, as LP presolve does
(Andersen & Andersen, *Math. Programming* 71, 1995).  Its terms fold into
the constants of every row, hyperbolic side and the objective, which are
written over the remaining *free* columns only, and
:meth:`CompiledProblem.point_as_mapping` still lists every registered
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import FormulationError
from repro.obs.trace import span as obs_span
from repro.solver.result import Solution, SolverStatus
from repro.solver.variable import Variable


def bounds_collapse(lower: float, upper: float) -> bool:
    """Bounds close enough that compilation substitutes the variable out.

    Such a variable is fixed at its lower bound: it gets no column and no
    bound rows.
    """
    return abs(upper - lower) <= 1e-12 * max(1.0, abs(lower))


def _is_fixed(var: Variable) -> bool:
    """Whether ``var``'s bounds collapse, so compilation substitutes its value."""
    return (
        var.lower is not None
        and var.upper is not None
        and bounds_collapse(var.lower, var.upper)
    )


@dataclass
class AffineRows:
    """Affine rows ``values·x[columns] + constant`` in CSR layout.

    Row ``i`` holds the terms ``indptr[i]:indptr[i + 1]`` of ``columns``
    (registered variable positions, each at most once per row, in the row's
    term order) and ``values``, and the constant ``constants[i]``.
    """

    indptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    constants: np.ndarray

    @property
    def count(self) -> int:
        return int(self.constants.size)

    @classmethod
    def single(
        cls, columns: Sequence[int], values: Sequence[float], constant: float
    ) -> "AffineRows":
        """One row."""
        return cls(
            np.array([0, len(columns)], dtype=np.intp),
            np.array(columns, dtype=np.intp),
            np.array(values, dtype=float),
            np.array([constant], dtype=float),
        )

    @classmethod
    def concatenate(cls, parts: Sequence["AffineRows"]) -> "AffineRows":
        """The rows of ``parts``, in order."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls(
                np.zeros(1, dtype=np.intp),
                np.zeros(0, dtype=np.intp),
                np.zeros(0),
                np.zeros(0),
            )
        offsets = np.cumsum([0] + [part.columns.size for part in parts])
        return cls(
            np.concatenate(
                [np.zeros(1, dtype=np.intp)]
                + [part.indptr[1:] + offset for part, offset in zip(parts, offsets)]
            ),
            np.concatenate([part.columns for part in parts]),
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.constants for part in parts]),
        )

    @classmethod
    def unit(cls, columns: Sequence[int]) -> "AffineRows":
        """One row ``x[column]`` per entry of ``columns``."""
        count = len(columns)
        return cls(
            np.arange(count + 1, dtype=np.intp),
            np.asarray(columns, dtype=np.intp),
            np.ones(count),
            np.zeros(count),
        )


@dataclass(frozen=True)
class CsrMatrix:
    """A sparse matrix in CSR layout: row ``i`` holds the entries
    ``indptr[i]:indptr[i + 1]`` of ``indices`` (its columns, ascending) and
    ``data``.

    The compiled form of ``G``, ``P``, ``Q`` and the objective.  Its arrays
    are laid out as scipy's ``csr_matrix`` lays them out after
    ``sort_indices()``, with ``int32`` indices wherever they fit, and its
    product sums each row in column order from zero, as scipy's does.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry as ``(row, column, value)``, in storage order."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return rows, self.indices, self.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with the vector ``x``."""
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {np.shape(x)}")
        rows, columns, values = self.entries()
        product = np.bincount(rows, weights=values * x[columns], minlength=self.shape[0])
        return product.astype(float, copy=False)  # integer zeros without entries

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows, columns, values = self.entries()
        dense[rows, columns] = values
        return dense

    def dense_rows(self, rows: Sequence[int]) -> np.ndarray:
        """The rows ``rows`` (indices, in order) as a dense array."""
        dense = np.zeros((len(rows), self.shape[1]))
        for index, row in enumerate(rows):
            start, stop = self.indptr[row], self.indptr[row + 1]
            dense[index, self.indices[start:stop]] = self.data[start:stop]
        return dense


class RowWriter:
    """Rows ``values·x[columns] + constant ≤ 0`` collected as flat lists.

    Model builders append one row at a time (its length, terms, constant
    and name); the rows then enter a program as one batch (:meth:`add_to`).
    """

    def __init__(self) -> None:
        self.lengths: List[int] = []
        self.columns: List[int] = []
        self.values: List[float] = []
        self.constants: List[float] = []
        self.names: List[str] = []

    def add_to(self, program: "ConeProgram") -> None:
        program.add_rows(
            AffineRows(
                np.concatenate([[0], np.cumsum(self.lengths, dtype=np.intp)]),
                np.array(self.columns, dtype=np.intp),
                np.array(self.values, dtype=float),
                np.array(self.constants, dtype=float),
            ),
            self.names,
        )


@dataclass
class CompiledHyperbolic:
    """Numerical form of the hyperbolic constraints
    ``(P·x + p0)ᵢ·(Q·x + q0)ᵢ ≥ boundᵢ``: one row of the CSR matrices ``P``
    and ``Q`` per term, the representation ``G`` uses for the linear rows."""

    P: CsrMatrix
    p0: np.ndarray
    Q: CsrMatrix
    q0: np.ndarray
    bound: np.ndarray
    names: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.bound.size)


@dataclass
class BlockStructure:
    """Block partition of a compiled problem's variables and constraints.

    Emitted by :meth:`ConeProgram.compile` when the program declared variable
    blocks (:meth:`ConeProgram.declare_blocks`) — per-member blocks in
    :class:`repro.core.formulation.SocpFormulation` — and every non-linear
    constraint turned out to be confined to a single block.  For two or more
    blocks the barrier backend uses it to solve each Newton step with
    block-Cholesky factorisations + a Schur complement on the
    arrow-structured KKT system (see
    :class:`repro.solver.barrier.BarrierSolver`).

    ``ranges`` are half-open ranges over the free columns, one per block,
    covering every column exactly once in order; a block whose variables
    were all substituted out has an empty range.  ``row_blocks`` assigns each
    inequality row the block its support lies in, with ``-1`` marking the
    *coupling rows* whose support spans several blocks (the shared processor
    and memory capacity rows of a workload program).
    """

    ranges: List[Tuple[int, int]]
    row_blocks: np.ndarray          #: block per inequality row; -1 = coupling
    hyperbolic_blocks: np.ndarray   #: block per hyperbolic term

    @property
    def num_blocks(self) -> int:
        return len(self.ranges)

    @property
    def coupling_rows(self) -> np.ndarray:
        """Indices of the inequality rows whose support spans several blocks."""
        return np.flatnonzero(self.row_blocks < 0)


class CompiledProblem:
    """Numerical representation of a :class:`ConeProgram`.

    The columns are the *free* variables, :attr:`variables`: every
    registered variable that compilation did not substitute out (see the
    module docstring).  The inequality matrix ``G`` is stored as a
    :class:`CsrMatrix`, :attr:`G_sparse` — for workload programs it is
    extremely sparse (a few entries per row against thousands of columns)
    and the block-Newton solver consumes its entries directly.  The dense
    view :attr:`G` is densified lazily and cached, for the scipy and linprog
    backends and for tests that want plain arrays.  The hyperbolic terms are
    :class:`CsrMatrix` too (:class:`CompiledHyperbolic`).

    ``h`` stays a plain mutable ndarray: admission's anytime verdict
    tightens the shared capacity rows of a compiled program in place.
    """

    def __init__(
        self,
        variables: List[Variable],
        c: np.ndarray,
        c0: float,
        G: CsrMatrix,
        h: np.ndarray,
        hyperbolic: CompiledHyperbolic,
        inequality_names: Optional[List[str]] = None,
        block_structure: Optional[BlockStructure] = None,
        registered_variables: Optional[List[Variable]] = None,
        substitutions: Optional[Dict[Variable, float]] = None,
    ) -> None:
        self.variables = variables
        self.c = c
        self.c0 = c0
        self.h = h
        self.hyperbolic = hyperbolic
        self.inequality_names = list(inequality_names or [])
        #: Optional per-application block partition (see
        #: :class:`BlockStructure`); ``None`` for unstructured programs,
        #: which the barrier backend solves as a single block.
        self.block_structure = block_structure
        #: every registered variable, free or substituted, in registration order
        self.registered_variables = (
            variables if registered_variables is None else registered_variables
        )
        #: substituted (fixed) variable → its value
        self.substitutions = dict(substitutions or {})
        #: The barrier backend's kernel layout (its stacked CSR rows and
        #: scatter plan per phase), written on first use.  Valid as long as
        #: ``G``, the hyperbolic terms and the block structure are unchanged;
        #: the layout never reads ``h``, so edits of ``h`` keep it.
        self.kernel_layout: Optional[object] = None
        #: the CSR inequality matrix
        self.G_sparse = G
        self._G_dense: Optional[np.ndarray] = None

    # -- constraint matrix views ------------------------------------------
    @property
    def G(self) -> np.ndarray:
        """Dense inequality matrix (densified lazily from CSR, then cached)."""
        if self._G_dense is None:
            self._G_dense = self.G_sparse.toarray()
        return self._G_dense

    @property
    def constraint_nnz(self) -> int:
        """Stored non-zeros of ``G`` (sparse-backend telemetry)."""
        return int(self.G_sparse.nnz)

    @property
    def num_variables(self) -> int:
        """Number of free columns."""
        return len(self.variables)

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x + self.c0)

    def point_as_mapping(self, x: np.ndarray) -> Dict[Variable, float]:
        """Every registered variable's value at the free-column point ``x``."""
        values = {var: float(x[i]) for i, var in enumerate(self.variables)}
        if not self.substitutions:
            return values
        values.update(self.substitutions)
        return {var: values[var] for var in self.registered_variables}

    def vector_from_mapping(
        self, values: Mapping[Variable, float], default: float = 0.0
    ) -> np.ndarray:
        x = np.full(self.num_variables, float(default))
        for i, var in enumerate(self.variables):
            if var in values:
                x[i] = float(values[var])
        return x

    # -- feasibility inspection -------------------------------------------
    def hyperbolic_sides(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both sides ``(P·x + p0, Q·x + q0)`` of every hyperbolic term at ``x``."""
        hyp = self.hyperbolic
        return hyp.P @ x + hyp.p0, hyp.Q @ x + hyp.q0

    def max_linear_violation(self, x: np.ndarray) -> float:
        """``max(G·x − h)``: negative when ``x`` satisfies every row strictly,
        ``-inf`` when there are no rows."""
        if not self.h.size:
            return -math.inf
        return float(np.max(self.G_sparse @ x - self.h))

    def min_cone_margin(self, x: np.ndarray) -> float:
        """``min(p·q − w, p, q)`` over the hyperbolic terms at ``x``: positive
        when ``x`` satisfies every term strictly, ``+inf`` when there are
        none."""
        if not len(self.hyperbolic):
            return math.inf
        p, q = self.hyperbolic_sides(x)
        return float(min(np.min(p * q - self.hyperbolic.bound), p.min(), q.min()))

    def constant_solution(self, backend: str) -> Solution:
        """The outcome of a program without free columns.

        Its one point is the empty vector: ``OPTIMAL`` at ``c0`` when every
        constraint holds there, ``INFEASIBLE`` otherwise.  Every backend
        answers such a program with this.
        """
        x = np.zeros(0)
        if self.max_linear_violation(x) > 0.0 or self.min_cone_margin(x) < 0.0:
            return Solution(
                status=SolverStatus.INFEASIBLE,
                backend=backend,
                message="a constant constraint is violated",
            )
        return Solution(
            status=SolverStatus.OPTIMAL,
            objective=self.c0,
            values=self.point_as_mapping(x),
            backend=backend,
        )


class ConeProgram:
    """A convex optimisation problem with linear and hyperbolic constraints.

    A hyperbolic constraint ``x·y ≥ w`` (``x, y > 0``) is a rotated
    second-order cone, the one cone kind the paper's program needs.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._names: Dict[str, Variable] = {}
        self._positions: Dict[Variable, int] = {}
        #: linear constraint batches: ``(rows, names)``
        self._linear: List[Tuple[AffineRows, List[str]]] = []
        #: hyperbolic batches: ``(x rows, y rows, bounds, names)``
        self._hyperbolic: List[Tuple[AffineRows, AffineRows, np.ndarray, List[str]]] = []
        self._objective: AffineRows = AffineRows.single([], [], 0.0)
        self._block_groups: Optional[List[Tuple[Variable, ...]]] = None

    # -- variables ---------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> Variable:
        """Create and register a decision variable with optional finite bounds.

        Its position — the column index rows and the objective use — is
        the number of variables registered before it.
        """
        if name in self._names:
            raise FormulationError(f"duplicate variable name {name!r}")
        variable = Variable(name, lower, upper)
        self._positions[variable] = len(self._variables)
        self._variables.append(variable)
        self._names[name] = variable
        return variable

    def variable(self, name: str) -> Variable:
        """Look up a registered variable by name."""
        try:
            return self._names[name]
        except KeyError:
            raise FormulationError(f"unknown variable {name!r}") from None

    def position(self, variable: Variable) -> int:
        """The registered position of ``variable``."""
        try:
            return self._positions[variable]
        except KeyError:
            raise FormulationError(
                f"variable {variable.name!r} is not registered with program "
                f"{self.name!r}"
            ) from None

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
        contiguous index ranges and every hyperbolic constraint is confined
        to one block; otherwise the compiled problem simply carries no
        structure and the solver treats it as one block, so declaring blocks
        is always safe.
        """
        for group in groups:
            for var in group:
                if self._names.get(var.name) is not var:
                    raise FormulationError(
                        f"block declaration references variable {var.name!r} "
                        f"that is not registered with program {self.name!r}"
                    )
        self._block_groups = [tuple(group) for group in groups]

    # -- constraints and objective ------------------------------------------
    def add_rows(self, rows: AffineRows, names: Sequence[str]) -> None:
        """Add the inequalities ``values·x[columns] + constant ≤ 0``, one per row.

        Columns are variable positions (see :meth:`add_variable`), each at
        most once per row; ``names`` names the rows in order.
        """
        self._check_rows(rows, names)
        self._linear.append((rows, list(names)))

    def add_hyperbolic_rows(
        self,
        x_rows: AffineRows,
        y_rows: AffineRows,
        bounds: Sequence[float],
        names: Sequence[str],
    ) -> None:
        """Add ``x_rows[i]·y_rows[i] ≥ bounds[i]`` (both sides positive) for
        every ``i``."""
        bounds = np.asarray(bounds, dtype=float)
        if not (np.isfinite(bounds).all() and (bounds > 0.0).all()):
            raise FormulationError(
                "hyperbolic constraint bounds must be positive finite numbers"
            )
        self._check_rows(x_rows, names)
        self._check_rows(y_rows, names)
        self._hyperbolic.append((x_rows, y_rows, bounds, list(names)))

    def minimize(
        self,
        columns: Sequence[int],
        coefficients: Sequence[float],
        constant: float = 0.0,
    ) -> None:
        """Set the objective to ``coefficients·x[columns] + constant``, minimised."""
        objective = AffineRows.single(columns, coefficients, constant)
        self._check_rows(objective, [""])
        self._objective = objective

    def _check_rows(self, rows: AffineRows, names: Sequence[str]) -> None:
        count = rows.count
        if len(names) != count or rows.indptr.size != count + 1:
            raise FormulationError(
                f"{count} rows with {rows.indptr.size} row pointers and "
                f"{len(names)} names"
            )
        if rows.indptr[0] != 0 or rows.indptr[-1] != rows.columns.size:
            raise FormulationError("row pointers do not cover the row terms")
        if rows.columns.size and not (
            0 <= rows.columns.min() and rows.columns.max() < len(self._variables)
        ):
            raise FormulationError(
                f"rows reference a variable position outside program {self.name!r}"
            )
        if not (np.isfinite(rows.values).all() and np.isfinite(rows.constants).all()):
            raise FormulationError("non-finite coefficient or constant in rows")

    # -- compilation -----------------------------------------------------------
    def _bound_rows(self, free_positions: List[int]) -> Tuple[AffineRows, List[str]]:
        """Bounds of the free variables as rows ``−x + lower ≤ 0`` /
        ``x − upper ≤ 0``.

        A fixed variable has none: two opposing inequalities would leave the
        feasible region without an interior, which the barrier method cannot
        handle.
        """
        columns: List[int] = []
        values: List[float] = []
        constants: List[float] = []
        names: List[str] = []
        for position in free_positions:
            var = self._variables[position]
            if var.lower is not None:
                columns.append(position)
                values.append(-1.0)
                constants.append(var.lower)
                names.append(f"lb[{var.name}]")
            if var.upper is not None:
                columns.append(position)
                values.append(1.0)
                constants.append(-var.upper)
                names.append(f"ub[{var.name}]")
        rows = AffineRows(
            np.arange(len(columns) + 1, dtype=np.intp),
            np.array(columns, dtype=np.intp),
            np.array(values, dtype=float),
            np.array(constants, dtype=float),
        )
        return rows, names

    @staticmethod
    def _lower(
        rows: AffineRows, fixed: np.ndarray, column: np.ndarray, n: int
    ) -> Tuple[CsrMatrix, np.ndarray]:
        """``rows`` over the free columns: a :class:`CsrMatrix` and the row
        constants with the fixed variables' terms folded in.

        ``fixed`` holds each fixed position's value, ``column`` each
        position's free column (``-1`` for a fixed variable).  A row's terms
        fold into its constant in the row's term order.
        """
        indptr, columns, values = rows.indptr, rows.columns, rows.values
        constants = rows.constants
        keep = column[columns] >= 0
        if not keep.all():
            folded = ~keep
            entry_rows = np.repeat(np.arange(rows.count), np.diff(indptr))
            constants = constants.copy()
            np.add.at(
                constants, entry_rows[folded], values[folded] * fixed[columns[folded]]
            )
        keep &= values != 0.0
        if not keep.all():
            kept_before = np.concatenate([[0], np.cumsum(keep)])
            indptr = kept_before[indptr]
            columns, values = columns[keep], values[keep]
        columns = column[columns]
        # Sort each row's columns; a row is sorted when its columns ascend
        # up to the row's end, so only a descent inside a row costs a sort.
        descents = np.flatnonzero(columns[1:] <= columns[:-1]) + 1
        if descents.size and not np.isin(descents, indptr).all():
            entry_rows = np.repeat(np.arange(rows.count), np.diff(indptr))
            order = np.argsort(entry_rows * n + columns, kind="stable")
            columns, values = columns[order], values[order]
        # scipy's index type: int32 wherever every index fits.
        fits = max(rows.count, n, columns.size) <= np.iinfo(np.int32).max
        index_dtype = np.int32 if fits else np.int64
        matrix = CsrMatrix(
            values,
            columns.astype(index_dtype),
            indptr.astype(index_dtype),
            (rows.count, n),
        )
        return matrix, constants

    def compile(self) -> CompiledProblem:
        """Lower the program into numerical (CSR + dense) form.

        Fixed variables are substituted out first (see the module
        docstring), so every array is written over the free columns only.
        ``G`` is the bound rows followed by every linear batch in
        registration order, lowered in one pass; the hyperbolic sides become
        ``P`` and ``Q`` the same way.
        """
        count = len(self._variables)
        fixed = np.zeros(count)
        column = np.full(count, -1, dtype=np.intp)
        substitutions: Dict[Variable, float] = {}
        free_positions: List[int] = []
        for position, var in enumerate(self._variables):
            if _is_fixed(var):
                fixed[position] = substitutions[var] = var.lower
            else:
                column[position] = len(free_positions)
                free_positions.append(position)
        n = len(free_positions)

        objective, c0 = self._lower(self._objective, fixed, column, n)
        bounds, ineq_names = self._bound_rows(free_positions)
        for _, names in self._linear:
            ineq_names.extend(names)
        G, constants = self._lower(
            AffineRows.concatenate([bounds] + [rows for rows, _ in self._linear]),
            fixed, column, n,
        )
        hyperbolic = CompiledHyperbolic(
            *self._lower(
                AffineRows.concatenate([x for x, _, _, _ in self._hyperbolic]),
                fixed, column, n,
            ),
            *self._lower(
                AffineRows.concatenate([y for _, y, _, _ in self._hyperbolic]),
                fixed, column, n,
            ),
            bound=np.concatenate([np.zeros(0)] + [b for _, _, b, _ in self._hyperbolic]),
            names=[name for _, _, _, names in self._hyperbolic for name in names],
        )

        return CompiledProblem(
            variables=[self._variables[position] for position in free_positions],
            c=objective.toarray().ravel(),
            c0=float(c0[0]),
            G=G,
            h=-constants,
            hyperbolic=hyperbolic,
            inequality_names=ineq_names,
            block_structure=self._compile_block_structure(column, G, hyperbolic),
            registered_variables=list(self._variables),
            substitutions=substitutions,
        )

    def _compile_block_structure(
        self,
        column: np.ndarray,
        G: CsrMatrix,
        hyperbolic: CompiledHyperbolic,
    ) -> Optional[BlockStructure]:
        """Turn a :meth:`declare_blocks` declaration into a :class:`BlockStructure`.

        ``column`` maps registered positions to free columns (``-1`` for a
        substituted variable).  Returns ``None`` (no structure: the solver
        treats the program as one block) when no blocks were declared, when
        the groups do not form contiguous runs of registered variables
        covering every one of them, or when a hyperbolic constraint spans
        several blocks — only *linear inequality* rows may couple blocks, because only their barrier Hessian
        contribution is the low-rank term the Schur-complement solve
        handles.  Substituted variables have no column, so each block's range
        covers the free columns of its group.

        Row/block membership of ``G``, ``P`` and ``Q`` is read in O(nnz)
        straight from the CSR index arrays; no dense column scans, so
        compilation stays linear in the number of applications.
        """
        if not self._block_groups:
            return None
        #: ``free_before[i]``: the free columns among the first ``i`` variables
        free_before = np.zeros(len(self._variables) + 1, dtype=int)
        np.cumsum(column >= 0, out=free_before[1:])
        covered = np.zeros(len(self._variables), dtype=bool)
        col_block = np.full(int(free_before[-1]), -1, dtype=int)
        ranges: List[Tuple[int, int]] = []
        for block_index, group in enumerate(self._block_groups):
            if not group:
                return None
            positions = sorted(self._positions[var] for var in group)
            start, stop = positions[0], positions[-1] + 1
            if stop - start != len(positions) or np.any(covered[start:stop]):
                return None
            covered[start:stop] = True
            first, last = int(free_before[start]), int(free_before[stop])
            col_block[first:last] = block_index
            ranges.append((first, last))
        if not np.all(covered):
            return None
        empty = len(ranges)

        def spans(matrix: CsrMatrix) -> Tuple[np.ndarray, np.ndarray]:
            """Per-row (lowest, highest) touched block; an empty row gives
            (``empty``, −1)."""
            counts = np.diff(matrix.indptr)
            lo = np.full(matrix.shape[0], empty, dtype=int)
            hi = np.full(matrix.shape[0], -1, dtype=int)
            nonempty = np.flatnonzero(counts > 0)
            if nonempty.size:
                entry_blocks = col_block[matrix.indices]
                starts = matrix.indptr[nonempty]
                # reduceat segments between consecutive non-empty row
                # starts cover exactly those rows' entries (empty rows
                # contribute no gap), so this is per-row min/max.
                lo[nonempty] = np.minimum.reduceat(entry_blocks, starts)
                hi[nonempty] = np.maximum.reduceat(entry_blocks, starts)
            return lo, hi

        g_lo, g_hi = spans(G)
        row_blocks = np.where(g_hi < g_lo, 0, np.where(g_lo != g_hi, -1, g_lo))
        p_lo, p_hi = spans(hyperbolic.P)
        q_lo, q_hi = spans(hyperbolic.Q)
        h_lo, h_hi = np.minimum(p_lo, q_lo), np.maximum(p_hi, q_hi)
        if np.any((h_hi >= 0) & (h_lo != h_hi)):
            return None
        hyperbolic_blocks = np.where(h_hi < 0, 0, h_lo)
        return BlockStructure(
            ranges=ranges,
            row_blocks=row_blocks,
            hyperbolic_blocks=hyperbolic_blocks,
        )

    # -- solving -----------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        initial_point: Optional[Mapping[Variable, float]] = None,
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
            Optional start point keyed by variable; phase I is skipped when
            it is strictly feasible.
        """
        from repro.solver import backends

        with obs_span("compile", program=self.name) as compile_span:
            compiled = self.compile()
        with obs_span("solve", program=self.name, backend=backend) as solve_span:
            solution = backends.solve_compiled(
                compiled, backend=backend, initial_point=initial_point
            )
            solve_span.set(backend_used=solution.backend, status=solution.status.value)
        solution.solve_time = solve_span.seconds
        solution.stats = dict(solution.stats)
        solution.stats["compile_time"] = compile_span.seconds
        return solution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConeProgram({self.name!r}, variables={len(self._variables)}, "
            f"linear={len(self._linear)}, hyperbolic={len(self._hyperbolic)})"
        )
