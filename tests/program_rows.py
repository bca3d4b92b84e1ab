"""Row writers for hand-built test programs.

:class:`~repro.solver.ConeProgram` takes constraints as
:class:`~repro.solver.AffineRows` over variable positions.  These helpers
write one row from a ``{variable: coefficient}`` mapping, so a test can
state ``x + 2·y ≤ 4`` as ``le(program, {x: 1.0, y: 2.0}, 4.0)``.
"""

from __future__ import annotations

from typing import Mapping

from repro.solver import AffineRows, ConeProgram, Variable

Terms = Mapping[Variable, float]


def row(program: ConeProgram, terms: Terms, constant: float = 0.0) -> AffineRows:
    """The one row ``Σ coefficient·variable + constant``."""
    return AffineRows.single(
        [program.position(var) for var in terms], list(terms.values()), constant
    )


def le(program: ConeProgram, terms: Terms, rhs: float, name: str = "") -> None:
    """Add ``Σ coefficient·variable ≤ rhs``."""
    program.add_rows(row(program, terms, 0.0 - rhs), [name])


def ge(program: ConeProgram, terms: Terms, rhs: float, name: str = "") -> None:
    """Add ``Σ coefficient·variable ≥ rhs``."""
    le(program, {var: -coeff for var, coeff in terms.items()}, -rhs, name)


def hyperbolic(
    program: ConeProgram,
    x_terms: Terms,
    x_constant: float,
    y_terms: Terms,
    y_constant: float,
    bound: float = 1.0,
    name: str = "",
) -> None:
    """Add ``(Σ x_terms + x_constant)·(Σ y_terms + y_constant) ≥ bound``."""
    program.add_hyperbolic_rows(
        row(program, x_terms, x_constant), row(program, y_terms, y_constant), [bound], [name]
    )


def minimize(program: ConeProgram, terms: Terms, constant: float = 0.0) -> None:
    """Set the objective ``Σ coefficient·variable + constant``."""
    program.minimize([program.position(var) for var in terms], list(terms.values()), constant)
