"""Constraint types accepted by :class:`repro.solver.problem.ConeProgram`.

Two constraint families are supported, the two the paper's program needs:

* :class:`LinearConstraint` — an affine inequality or equality
  (Constraints (6), (7), (9) and (10) of Algorithm 1).
* :class:`HyperbolicConstraint` — ``x(v)·y(v) ≥ w`` with ``x, y`` affine and
  ``w > 0`` constant, restricted to the branch ``x > 0, y > 0``
  (Constraint (8), ``λ(w_i)·β'(w_i) ≥ 1``).  It is a rotated second-order
  cone, ``‖(2√w, x − y)‖₂ ≤ x + y``.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.exceptions import FormulationError
from repro.solver.expression import AffineExpression, ExpressionLike, Variable

#: Constraint senses for :class:`LinearConstraint`.
LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

_VALID_SENSES = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


class LinearConstraint:
    """An affine constraint ``lhs <sense> rhs``.

    Internally the constraint is normalised to ``expr <= 0`` (for
    inequalities) or ``expr == 0`` (for equalities) where
    ``expr = lhs - rhs`` for ``<=`` and ``rhs - lhs`` for ``>=``.
    """

    __slots__ = ("name", "expression", "sense", "_original_sense")

    def __init__(
        self,
        lhs: ExpressionLike,
        sense: str,
        rhs: ExpressionLike,
        name: Optional[str] = None,
    ) -> None:
        if sense not in _VALID_SENSES:
            raise FormulationError(
                f"unknown constraint sense {sense!r}; expected one of {_VALID_SENSES}"
            )
        lhs_expr = AffineExpression.coerce(lhs)
        rhs_expr = AffineExpression.coerce(rhs)
        if sense == GREATER_EQUAL:
            normalised = rhs_expr - lhs_expr
        else:
            normalised = lhs_expr - rhs_expr
        self.expression = normalised
        self.sense = EQUAL if sense == EQUAL else LESS_EQUAL
        self._original_sense = sense
        self.name = name or ""

    @property
    def is_equality(self) -> bool:
        return self.sense == EQUAL

    def violation(self, values: Mapping[Variable, float]) -> float:
        """Return the constraint violation at ``values`` (0.0 when satisfied)."""
        value = self.expression.evaluate(values)
        if self.is_equality:
            return abs(value)
        return max(0.0, value)

    def is_satisfied(
        self, values: Mapping[Variable, float], tolerance: float = 1e-8
    ) -> bool:
        return self.violation(values) <= tolerance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = "==" if self.is_equality else "<="
        label = f" [{self.name}]" if self.name else ""
        return f"LinearConstraint({self.expression!r} {op} 0{label})"


class HyperbolicConstraint:
    """The bilinear constraint ``x(v) · y(v) ≥ bound`` with ``x, y > 0``.

    The feasible region (restricted to the positive branch) is convex and is
    exactly the rotated second-order cone
    ``‖(2·sqrt(bound), x − y)‖₂ ≤ x + y``.
    """

    __slots__ = ("name", "x", "y", "bound")

    def __init__(
        self,
        x: ExpressionLike,
        y: ExpressionLike,
        bound: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        bound = float(bound)
        if not math.isfinite(bound) or bound <= 0.0:
            raise FormulationError(
                f"hyperbolic constraint bound must be a positive finite number, got {bound!r}"
            )
        self.x = AffineExpression.coerce(x)
        self.y = AffineExpression.coerce(y)
        if self.x.is_constant() and self.y.is_constant():
            raise FormulationError(
                "hyperbolic constraint between two constants; evaluate it instead"
            )
        self.bound = bound
        self.name = name or ""

    def margin(self, values: Mapping[Variable, float]) -> float:
        """Return ``x·y − bound`` at ``values`` (negative when violated)."""
        return self.x.evaluate(values) * self.y.evaluate(values) - self.bound

    def is_satisfied(
        self, values: Mapping[Variable, float], tolerance: float = 1e-8
    ) -> bool:
        x_val = self.x.evaluate(values)
        y_val = self.y.evaluate(values)
        return x_val > 0.0 and y_val > 0.0 and x_val * y_val >= self.bound - tolerance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" [{self.name}]" if self.name else ""
        return f"HyperbolicConstraint(({self.x!r})*({self.y!r}) >= {self.bound}{label})"

