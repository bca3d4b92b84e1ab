"""Problem container and compilation to numerical form.

:class:`ConeProgram` is the modelling entry point of the optimisation
substrate: variables and constraints are registered on it, an affine
objective is chosen, and :meth:`ConeProgram.solve` dispatches to one of the
backends (:mod:`repro.solver.barrier`, :mod:`repro.solver.linprog_backend`,
:mod:`repro.solver.scipy_backend`).

A program keeps its linear constraints, and both sides of its hyperbolic
constraints, as :class:`AffineRows`: affine rows in CSR layout over the
registered variables.  Two front ends write them.  The expression API
(:meth:`ConeProgram.add_linear`, :meth:`ConeProgram.add_hyperbolic`, ...)
turns each constraint into one row; model builders that emit a whole
constraint family at once use the array API (:meth:`ConeProgram.add_rows`,
:meth:`ConeProgram.add_hyperbolic_pairs`).  :meth:`ConeProgram.compile`
lowers both the same way into a :class:`CompiledProblem` made of CSR and
dense numpy arrays, concatenating the stored rows:

* objective vector ``c`` and offset ``c0``,
* inequalities ``G·x ≤ h`` in CSR form (variable bounds folded in),
* hyperbolic constraints as two CSR matrices ``P``/``Q`` with one row per
  term, plus the offset and bound vectors (:class:`CompiledHyperbolic`).

A compiled problem has no equality rows.  Compilation substitutes them out,
as LP presolve does (Andersen & Andersen, *Math. Programming* 71, 1995): a
variable whose bounds collapse (:func:`bounds_collapse`) is replaced by its
value, and each :meth:`ConeProgram.add_equality` row by solving it for its
pivot — the term with the largest ``|coefficient|`` once the earlier
substitutions are applied.  Every row, hyperbolic offset and the objective
is written over the remaining *free* columns only; each substituted
variable is kept as an affine function of them, so
:meth:`CompiledProblem.point_as_mapping` still lists every registered
variable.  An equality row that substitution reduces to a constant is
dropped when the constant is zero (a redundant row) and otherwise becomes
the constant row ``0 ≤ −|residual|``, which every backend reports as
infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
)
from repro.solver.expression import (
    AffineExpression,
    ExpressionLike,
    Variable,
    linear_sum,
)
from repro.solver.result import Solution, SolverStatus

Constraint = Union[LinearConstraint, HyperbolicConstraint]

#: A substituted variable over the free ones, keyed by registered position:
#: ``(coefficient by position, constant)``.
_Substitution = Tuple[Dict[int, float], float]


def bounds_collapse(lower: float, upper: float) -> bool:
    """Bounds close enough that compilation substitutes the variable out.

    Such a variable is fixed at its lower bound: it gets no column and no
    bound rows.  This is the single definition shared by
    :meth:`ConeProgram.compile` and the parametric layers
    (:class:`repro.core.formulation.ParametricSocpFormulation` detects this
    case to fall back to a rebuild, since dropping a column cannot be done
    by mutating inequality right-hand sides).
    """
    return abs(upper - lower) <= 1e-12 * max(1.0, abs(lower))


def _is_fixed(var: Variable) -> bool:
    """Whether ``var``'s bounds collapse, so compilation substitutes its value."""
    return (
        var.lower is not None
        and var.upper is not None
        and bounds_collapse(var.lower, var.upper)
    )


def _substitute(
    columns: Sequence[int],
    values: Sequence[float],
    constant: float,
    substitutions: Mapping[int, _Substitution],
) -> _Substitution:
    """The affine row ``values·x[columns] + constant`` with every substituted
    position replaced by its expression, as ``(coefficients, constant)``.

    A coefficient that cancels to within 1e-12 of the largest term summed
    into it is dropped: the cancellation is exact in real arithmetic.
    """
    if substitutions.keys().isdisjoint(columns):
        return dict(zip(columns, values)), constant
    terms: Dict[int, float] = {}
    scale: Dict[int, float] = {}
    for column, coeff in zip(columns, values):
        replacement = substitutions.get(column)
        if replacement is None:
            parts: Mapping[int, float] = {column: 1.0}
        else:
            constant += coeff * replacement[1]
            parts = replacement[0]
        for term, weight in parts.items():
            value = coeff * weight
            terms[term] = terms.get(term, 0.0) + value
            scale[term] = max(scale.get(term, 0.0), abs(value))
    return (
        {term: value for term, value in terms.items() if abs(value) > 1e-12 * scale[term]},
        float(constant),
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

    def row(self, index: int) -> Tuple[List[int], List[float], float]:
        """Row ``index`` as plain ``(columns, values, constant)``."""
        start, stop = self.indptr[index], self.indptr[index + 1]
        return (
            self.columns[start:stop].tolist(),
            self.values[start:stop].tolist(),
            float(self.constants[index]),
        )


@dataclass
class CompiledHyperbolic:
    """Numerical form of the hyperbolic constraints
    ``(P·x + p0)ᵢ·(Q·x + q0)ᵢ ≥ boundᵢ``: one CSR row of ``P`` and ``Q`` per
    term, the representation ``G`` uses for the linear rows."""

    P: object
    p0: np.ndarray
    Q: object
    q0: np.ndarray
    bound: np.ndarray
    names: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.bound.size)


@dataclass
class BlockStructure:
    """Block partition of a compiled problem's variables and constraints.

    Emitted by :meth:`ConeProgram.compile` when the program declared variable
    blocks (:meth:`ConeProgram.declare_blocks`) — per-application blocks in
    :class:`repro.core.formulation._BlockAssembly` — and every non-linear
    constraint turned out to be confined to a single block once the
    equalities were substituted.  For two or more blocks the barrier backend
    uses it to solve each Newton step with block-Cholesky factorisations + a
    Schur complement on the arrow-structured KKT system (see
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
    module docstring).  The inequality matrix ``G`` is stored in CSR form,
    :attr:`G_sparse` — for workload programs it is extremely sparse (a few
    entries per row against thousands of columns) and the block-Newton
    solver consumes it blockwise.  The dense view :attr:`G` is densified
    lazily and cached, for the scipy and linprog backends and for tests that
    want plain arrays.  The hyperbolic terms are CSR too
    (:class:`CompiledHyperbolic`).

    ``h`` stays a plain mutable ndarray: the parametric layer
    (:class:`repro.solver.parametric.ParametricProblem`) re-solves a compiled
    program by mutating ``h`` rows in place.  :attr:`h_shifts` records, per
    row, what substitution added to that row's ``h``.
    """

    def __init__(
        self,
        variables: List[Variable],
        c: np.ndarray,
        c0: float,
        G: object,
        h: np.ndarray,
        hyperbolic: CompiledHyperbolic,
        inequality_names: Optional[List[str]] = None,
        block_structure: Optional[BlockStructure] = None,
        registered_variables: Optional[List[Variable]] = None,
        substitutions: Optional[Dict[Variable, Tuple[np.ndarray, np.ndarray, float]]] = None,
        h_shifts: Optional[Dict[int, float]] = None,
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
        #: substituted variable → ``(columns, coefficients, constant)``: its
        #: value is ``constant + coefficients · x[columns]``
        self.substitutions = dict(substitutions or {})
        #: row index → the amount substitution added to that row's ``h``
        self.h_shifts = dict(h_shifts or {})
        #: The barrier backend's kernel layout (its stacked CSR rows and
        #: scatter plan per phase), written on first use.  Valid as long as ``G``, the
        #: hyperbolic terms and the block structure are unchanged —
        #: parametric re-solves mutate only ``h``, so warm-started sessions
        #: reuse one layout.
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

    def index_of(self, variable: Variable) -> int:
        try:
            return self._index[variable]
        except AttributeError:
            self._index = {var: i for i, var in enumerate(self.variables)}
            return self._index[variable]

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x + self.c0)

    def point_as_mapping(self, x: np.ndarray) -> Dict[Variable, float]:
        """Every registered variable's value at the free-column point ``x``."""
        values = {var: float(x[i]) for i, var in enumerate(self.variables)}
        if not self.substitutions:
            return values
        for var, (columns, coefficients, constant) in self.substitutions.items():
            values[var] = float(constant + coefficients @ x[columns])
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
        #: linear constraint batches: ``(rows, names, equality)``
        self._linear: List[Tuple[AffineRows, List[str], bool]] = []
        #: hyperbolic batches: ``(x rows, y rows, bounds, names)``
        self._hyperbolic: List[Tuple[AffineRows, AffineRows, np.ndarray, List[str]]] = []
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
        """Create and register a decision variable with optional bounds.

        Its position — the column index the array API
        (:meth:`add_rows`, :meth:`add_hyperbolic_pairs`) uses — is the
        number of variables registered before it.
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
        contiguous index ranges and, once the equalities are substituted,
        every hyperbolic constraint is confined to one block; otherwise the
        compiled problem simply carries no structure and the solver treats it
        as one block, so declaring blocks is always safe.
        """
        for group in groups:
            for var in group:
                if self._names.get(var.name) is not var:
                    raise FormulationError(
                        f"block declaration references variable {var.name!r} "
                        f"that is not registered with program {self.name!r}"
                    )
        self._block_groups = [tuple(group) for group in groups]

    # -- constraints: expression API ------------------------------------------
    def _row(self, expression: AffineExpression) -> AffineRows:
        self._check_known_variables(expression)
        return AffineRows.single(
            [self._positions[var] for var in expression.terms],
            list(expression.terms.values()),
            expression.constant,
        )

    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Register an already-constructed constraint object."""
        if isinstance(constraint, LinearConstraint):
            self._linear.append(
                (
                    self._row(constraint.expression),
                    [constraint.name],
                    constraint.is_equality,
                )
            )
        elif isinstance(constraint, HyperbolicConstraint):
            self._hyperbolic.append(
                (
                    self._row(constraint.x),
                    self._row(constraint.y),
                    np.array([constraint.bound]),
                    [constraint.name],
                )
            )
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

    # -- constraints: array API -------------------------------------------------
    def add_rows(self, rows: AffineRows, names: Sequence[str]) -> None:
        """Add the inequalities ``values·x[columns] + constant ≤ 0``, one per row.

        Columns are variable positions (see :meth:`add_variable`), each at
        most once per row; ``names`` names the rows in order.
        """
        self._check_rows(rows, names)
        self._linear.append((rows, list(names), False))

    def add_hyperbolic_pairs(
        self,
        x_columns: Sequence[int],
        y_columns: Sequence[int],
        bounds: Sequence[float],
        names: Sequence[str],
    ) -> None:
        """Add ``x[x_columns[i]]·x[y_columns[i]] ≥ bounds[i]`` for every ``i``."""
        bounds = np.asarray(bounds, dtype=float)
        if not (np.isfinite(bounds).all() and (bounds > 0.0).all()):
            raise FormulationError(
                "hyperbolic constraint bounds must be positive finite numbers"
            )
        count = bounds.size
        indptr = np.arange(count + 1, dtype=np.intp)
        ones, zeros = np.ones(count), np.zeros(count)
        x_rows = AffineRows(indptr, np.asarray(x_columns, dtype=np.intp), ones, zeros)
        y_rows = AffineRows(indptr, np.asarray(y_columns, dtype=np.intp), ones, zeros)
        self._check_rows(x_rows, names)
        self._check_rows(y_rows, names)
        self._hyperbolic.append((x_rows, y_rows, bounds, list(names)))

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

    # -- constraints: inspection ---------------------------------------------------
    def _expression(self, rows: AffineRows, index: int) -> AffineExpression:
        columns, values, constant = rows.row(index)
        return AffineExpression(
            {self._variables[column]: value for column, value in zip(columns, values)},
            constant,
        )

    @property
    def linear_constraints(self) -> Tuple[LinearConstraint, ...]:
        """Every linear constraint, as ``expression <= 0`` / ``== 0`` objects."""
        return tuple(
            LinearConstraint(
                self._expression(rows, index),
                EQUAL if equality else LESS_EQUAL,
                0.0,
                name=names[index],
            )
            for rows, names, equality in self._linear
            for index in range(rows.count)
        )

    @property
    def hyperbolic_constraints(self) -> Tuple[HyperbolicConstraint, ...]:
        return tuple(
            HyperbolicConstraint(
                self._expression(x_rows, index),
                self._expression(y_rows, index),
                float(bounds[index]),
                name=names[index],
            )
            for x_rows, y_rows, bounds, names in self._hyperbolic
            for index in range(bounds.size)
        )

    @property
    def is_linear(self) -> bool:
        """True when the program contains no hyperbolic constraints (pure LP)."""
        return not self._hyperbolic

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
    def _substitutions(self) -> Tuple[Dict[int, _Substitution], Dict[int, float]]:
        """Every substituted variable as an affine function of the free ones.

        Keyed by registered position.  Fixed variables
        (:func:`bounds_collapse`) come first, then one pivot per equality row
        in registration order.  Each new pivot is also substituted into the
        earlier expressions, so every expression only ever mentions free
        variables.  Returns the substitutions and the ``|residual|`` of each
        equality row (keyed by its batch in the linear constraints) that
        reduced to a non-zero constant; a row that reduced to zero is
        redundant and simply dropped.
        """
        substitutions: Dict[int, _Substitution] = {
            position: ({}, var.lower)
            for position, var in enumerate(self._variables)
            if _is_fixed(var)
        }
        inconsistent: Dict[int, float] = {}
        for batch, (rows, _, equality) in enumerate(self._linear):
            if not equality:
                continue
            columns, values, constant = rows.row(0)
            terms, residual = _substitute(columns, values, constant, substitutions)
            if not terms:
                if abs(residual) > 1e-9 * max(1.0, abs(constant)):
                    inconsistent[batch] = abs(residual)
                continue
            pivot, weight = max(terms.items(), key=lambda term: abs(term[1]))
            solved = (
                {term: -coeff / weight for term, coeff in terms.items() if term != pivot},
                -residual / weight,
            )
            for position, (sub_terms, sub_constant) in substitutions.items():
                if pivot in sub_terms:
                    substitutions[position] = _substitute(
                        list(sub_terms), list(sub_terms.values()), sub_constant,
                        {pivot: solved},
                    )
            substitutions[pivot] = solved
        return substitutions, inconsistent

    def _bound_rows(
        self, substitutions: Mapping[int, _Substitution]
    ) -> Tuple[AffineRows, List[str]]:
        """Variable bounds as rows ``−x + lower ≤ 0`` / ``x − upper ≤ 0``.

        A fixed variable has none: two opposing inequalities would leave the
        feasible region without an interior, which the barrier method cannot
        handle.  An equality pivot keeps its bounds (written over the free
        columns by substitution, like any row).
        """
        columns: List[int] = []
        values: List[float] = []
        constants: List[float] = []
        names: List[str] = []
        for position, var in enumerate(self._variables):
            if position in substitutions and _is_fixed(var):
                continue
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
        rows: AffineRows,
        substitutions: Mapping[int, _Substitution],
        column: np.ndarray,
        n: int,
    ) -> Tuple[object, np.ndarray, Dict[int, float]]:
        """``rows`` over the free columns: a sorted CSR matrix, the row
        constants after substitution and the shift substitution added to
        each changed row's constant (as ``old − new``)."""
        indptr, columns, values = rows.indptr, rows.columns, rows.values
        constants = rows.constants
        shifts: Dict[int, float] = {}
        if substitutions and columns.size:
            entry_rows = np.repeat(np.arange(rows.count), np.diff(indptr))
            touched = np.unique(entry_rows[column[columns] < 0])
            if touched.size:
                constants = constants.copy()
                lengths = np.diff(indptr)
                column_parts: List[np.ndarray] = []
                value_parts: List[np.ndarray] = []
                done = 0
                for row in touched.tolist():
                    start, stop = int(indptr[row]), int(indptr[row + 1])
                    column_parts.append(columns[done:start])
                    value_parts.append(values[done:start])
                    old_columns, old_values, old_constant = rows.row(row)
                    terms, constant = _substitute(
                        old_columns, old_values, old_constant, substitutions
                    )
                    column_parts.append(np.array(list(terms), dtype=np.intp))
                    value_parts.append(np.array(list(terms.values()), dtype=float))
                    lengths[row] = len(terms)
                    if constant != old_constant:
                        shifts[row] = old_constant - constant
                    constants[row] = constant
                    done = stop
                column_parts.append(columns[done:])
                value_parts.append(values[done:])
                columns = np.concatenate(column_parts)
                values = np.concatenate(value_parts)
                indptr = np.concatenate([[0], np.cumsum(lengths)])
        keep = values != 0.0
        if not keep.all():
            kept_before = np.concatenate([[0], np.cumsum(keep)])
            indptr = kept_before[indptr]
            columns, values = columns[keep], values[keep]
        matrix = _sparse.csr_matrix(
            (values, column[columns], indptr), shape=(rows.count, n)
        )
        matrix.sort_indices()
        return matrix, constants, shifts

    def _dense(
        self,
        expression: AffineExpression,
        substitutions: Mapping[int, _Substitution],
        column: np.ndarray,
        n: int,
    ) -> Tuple[np.ndarray, float]:
        """``expression`` over the free columns as a dense vector and constant."""
        terms, constant = _substitute(
            [self._positions[var] for var in expression.terms],
            list(expression.terms.values()),
            expression.constant,
            substitutions,
        )
        row = np.zeros(n)
        for position, coeff in terms.items():
            row[column[position]] = coeff
        return row, constant

    def compile(self) -> CompiledProblem:
        """Lower the program into numerical (CSR + dense) form.

        Equalities are substituted out first (see the module docstring), so
        every array is written over the free columns only.  ``G`` is the
        bound rows followed by every linear batch in registration order,
        lowered in one pass; the hyperbolic sides become ``P`` and ``Q`` the
        same way.
        """
        substitutions, inconsistent = self._substitutions()
        count = len(self._variables)
        column = np.full(count, -1, dtype=np.intp)
        free_positions = np.setdiff1d(
            np.arange(count), np.fromiter(substitutions, dtype=np.intp, count=len(substitutions))
        )
        column[free_positions] = np.arange(free_positions.size)
        free = [self._variables[position] for position in free_positions.tolist()]
        n = len(free)

        # Objective (always converted to minimisation form).
        c, c0 = self._dense(self._objective, substitutions, column, n)
        if self._sense == "max":
            c, c0 = -c, -c0

        bounds, ineq_names = self._bound_rows(substitutions)
        parts = [bounds]
        for batch, (rows, names, equality) in enumerate(self._linear):
            if batch in inconsistent:
                parts.append(AffineRows.single([], [], inconsistent[batch]))
            elif equality:
                continue
            else:
                parts.append(rows)
            ineq_names.extend(names)
        G, constants, h_shifts = self._lower(
            AffineRows.concatenate(parts), substitutions, column, n
        )
        h = -constants

        hyperbolic = CompiledHyperbolic(
            *self._lower(
                AffineRows.concatenate([x for x, _, _, _ in self._hyperbolic]),
                substitutions, column, n,
            )[:2],
            *self._lower(
                AffineRows.concatenate([y for _, y, _, _ in self._hyperbolic]),
                substitutions, column, n,
            )[:2],
            bound=np.concatenate([np.zeros(0)] + [b for _, _, b, _ in self._hyperbolic]),
            names=[name for _, _, _, names in self._hyperbolic for name in names],
        )

        return CompiledProblem(
            variables=free,
            c=c,
            c0=c0,
            G=G,
            h=h,
            hyperbolic=hyperbolic,
            inequality_names=ineq_names,
            block_structure=self._compile_block_structure(column, G, hyperbolic),
            registered_variables=list(self._variables),
            substitutions={
                self._variables[position]: (
                    column[np.fromiter(terms, dtype=np.intp, count=len(terms))],
                    np.array(list(terms.values()), dtype=float),
                    constant,
                )
                for position, (terms, constant) in substitutions.items()
            },
            h_shifts=h_shifts,
        )

    def _compile_block_structure(
        self,
        column: np.ndarray,
        G: object,
        hyperbolic: CompiledHyperbolic,
    ) -> Optional[BlockStructure]:
        """Turn a :meth:`declare_blocks` declaration into a :class:`BlockStructure`.

        ``column`` maps registered positions to free columns (``-1`` for a
        substituted variable).  Returns ``None`` (no structure: the solver
        treats the program as one block) when no blocks were declared, when
        the groups do not form contiguous runs of registered variables
        covering every one of them, or when a hyperbolic constraint spans
        several blocks after substitution — only *linear inequality*
        rows may couple blocks, because only their barrier Hessian
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

        def spans(matrix: object) -> Tuple[np.ndarray, np.ndarray]:
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
            f"linear={len(self._linear)}, hyperbolic={len(self._hyperbolic)})"
        )
