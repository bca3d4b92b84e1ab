"""Decision-variable handles of the modelling layer.

A :class:`Variable` is a name, optional bounds and an identity: constraints
and the objective address it by its registered position in a
:class:`~repro.solver.problem.ConeProgram`, and solutions map it to its
value.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Union

from repro.exceptions import FormulationError

Number = Union[int, float]

_variable_counter = itertools.count()


def _bound(name: str, value: Optional[Number]) -> Optional[float]:
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        raise FormulationError(
            f"variable {name!r} has non-finite bound {value!r}; use None for "
            f"an unbounded side"
        )
    return value


class Variable:
    """A scalar decision variable.

    Parameters
    ----------
    name:
        Human-readable identifier.  Names must be unique within a
        :class:`~repro.solver.problem.ConeProgram`.
    lower, upper:
        Optional finite bounds.  ``None`` means unbounded in that direction.
    """

    __slots__ = ("name", "lower", "upper", "_uid")

    def __init__(
        self,
        name: str,
        lower: Optional[Number] = None,
        upper: Optional[Number] = None,
    ) -> None:
        if not name:
            raise FormulationError("variable name must be a non-empty string")
        self.lower = _bound(name, lower)
        self.upper = _bound(name, upper)
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise FormulationError(
                f"variable {name!r} has contradictory bounds [{lower}, {upper}]"
            )
        self.name = str(name)
        self._uid = next(_variable_counter)

    def __hash__(self) -> int:
        return self._uid

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bounds = ""
        if self.lower is not None or self.upper is not None:
            bounds = f" in [{self.lower}, {self.upper}]"
        return f"Variable({self.name!r}{bounds})"
