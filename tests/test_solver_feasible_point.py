"""Differential tests of the phase-I-only entry point against the full solve.

:meth:`BarrierSolver.feasible_point` runs the prefix of
:meth:`BarrierSolver.solve` (block slicing and phase I) and stops.
On seeded random-DAG, heterogeneous and CSDF programs — plus variants whose
processor rows are tightened like the admission controller's residual
programs, some of them below the tasks' minimum budgets — it must return a
point exactly when ``solve`` is ``OPTIMAL`` and ``None`` exactly when
``solve`` is ``INFEASIBLE``, and every point it returns must be strictly
feasible.
"""

from __future__ import annotations

import numpy as np
import pytest

from program_rows import le, minimize
from repro import obs
from repro.core.formulation import SocpFormulation
from repro.solver import BarrierSolver, ConeProgram, SolverStatus
from repro.taskgraph.generators import (
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)

RANDOM_SEEDS = range(30)


def _configuration(key: str):
    family, _, rest = key.partition("-")
    if family == "rdag":
        return random_dag_configuration(task_count=6, processor_count=4, seed=int(rest))
    if family == "het":
        return heterogeneous_random_configuration(seed=int(rest))
    stages, phases = rest.split("x")
    return csdf_chain_configuration(stages=int(stages), phases_per_task=int(phases))


def _processor_rows(compiled):
    return [
        index
        for index, name in enumerate(compiled.inequality_names)
        if name.startswith("processor[")
    ]


def _minimum_load(compiled, index: int) -> float:
    """The row's left-hand side with every budget at its lower bound."""
    row = compiled.G[index]
    return sum(
        row[column] * compiled.variables[column].lower
        for column in np.flatnonzero(row)
    )


def _program(key: str, variant: str):
    """``(compiled, start)`` for one instance.

    ``plain`` is the program as built; ``residual`` takes 70 % of every
    processor row's capacity away, as committed usage does in an admission
    verdict, which leaves some programs feasible and others not;
    ``starved`` sets the first processor row's bound to half the load of
    its tasks' minimum budgets, which phase I proves infeasible.
    """
    formulation = SocpFormulation(_configuration(key))
    compiled = formulation.build().compile()
    rows = _processor_rows(compiled)
    if variant == "residual":
        for index in rows:
            compiled.h[index] *= 0.3
    elif variant == "starved":
        compiled.h[rows[0]] = 0.5 * _minimum_load(compiled, rows[0])
    start = compiled.vector_from_mapping(formulation.initial_point())
    return compiled, start


CASES = (
    [(f"rdag-{seed}", "plain") for seed in RANDOM_SEEDS]
    + [(f"het-{seed}", "plain") for seed in RANDOM_SEEDS]
    + [(f"csdf-{s}x{p}", "plain") for s in range(2, 6) for p in (2, 3)]
    + [(f"rdag-{seed}", "residual") for seed in range(15)]
    + [(f"het-{seed}", "residual") for seed in range(15)]
    + [(f"rdag-{seed}", "starved") for seed in range(8)]
    + [(f"het-{seed}", "starved") for seed in range(8)]
    + [("csdf-3x2", "starved"), ("csdf-5x3", "starved")]
)


def _assert_strictly_feasible(compiled, x: np.ndarray) -> None:
    assert x.shape == (compiled.num_variables,)
    assert compiled.max_linear_violation(x) < 0.0
    assert compiled.min_cone_margin(x) > 0.0


@pytest.mark.parametrize("key,variant", CASES, ids=[f"{k}-{v}" for k, v in CASES])
def test_feasible_point_agrees_with_solve(key, variant):
    compiled, start = _program(key, variant)
    solution = BarrierSolver().solve(compiled, initial_point=start)
    point = BarrierSolver().feasible_point(compiled, initial_point=start)
    assert solution.status in (SolverStatus.OPTIMAL, SolverStatus.INFEASIBLE)
    if variant == "starved":
        assert solution.status is SolverStatus.INFEASIBLE
    assert (point is not None) == solution.is_optimal
    assert (point is None) == (solution.status is SolverStatus.INFEASIBLE)
    if point is not None:
        _assert_strictly_feasible(compiled, point)


def test_residual_programs_straddle_the_feasibility_boundary():
    # The tightened programs are not all on one side, so the agreement above
    # is tested where the verdict is decided, not only far from it.
    outcomes = {
        BarrierSolver().feasible_point(*_program(key, variant)) is None
        for key, variant in CASES
        if variant == "residual"
    }
    assert outcomes == {True, False}


def test_phase_one_is_the_solve_prefix():
    # feasible_point stops where solve's phase I ends: the same phase-I
    # work, and zero phase-II iterations in the published statistics.
    compiled, start = _program("het-3", "residual")
    with obs.capture() as full:
        BarrierSolver().solve(compiled, initial_point=start)
    with obs.capture() as prefix:
        point = BarrierSolver().feasible_point(compiled, initial_point=start)
    assert point is not None
    phase1 = "solver.phase1_newton_iterations"
    assert prefix.metrics[phase1]["sum"] == full.metrics[phase1]["sum"] > 0
    assert prefix.metrics["solver.newton_iterations"]["sum"] == 0
    assert full.metrics["solver.newton_iterations"]["sum"] > 0
    assert prefix.metrics["solver.solves"]["value"] == 1


def test_strictly_feasible_start_is_returned_as_is():
    program = ConeProgram()
    x = program.add_variable("x", lower=0.0, upper=4.0)
    y = program.add_variable("y", lower=0.0, upper=4.0)
    le(program, {x: 1.0, y: 1.0}, 6.0)
    minimize(program, {x: -1.0, y: -1.0})
    compiled = program.compile()
    start = np.array([1.0, 2.0])
    point = BarrierSolver().feasible_point(compiled, initial_point=start)
    np.testing.assert_array_equal(point, start)


class TestDegeneratePrograms:
    def test_no_variables_is_feasible(self):
        program = ConeProgram()
        minimize(program, {}, 0.0)
        compiled = program.compile()
        point = BarrierSolver().feasible_point(compiled)
        assert point is not None and point.shape == (0,)

    def test_no_inequality_rows_is_feasible_on_consistent_equalities(self):
        """``x`` pinned to 3 and a free ``y``: compilation leaves no row."""
        program = ConeProgram()
        x = program.add_variable("x", lower=3.0, upper=3.0)
        y = program.add_variable("y")
        minimize(program, {y: 1.0})  # unbounded, but feasible
        compiled = program.compile()
        assert compiled.h.size == 0
        assert BarrierSolver().solve(compiled).status is SolverStatus.UNBOUNDED
        point = BarrierSolver().feasible_point(compiled)
        assert point is not None
        values = compiled.point_as_mapping(point)
        assert set(values) == {x, y}
        assert values[x] == 3.0

    def test_inconsistent_equalities_are_infeasible(self):
        """``x`` pinned to 1 contradicts ``x + y ≥ 7`` with ``y ≤ 5``."""
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=1.0)
        y = program.add_variable("y", lower=0.0)
        le(program, {x: -1.0, y: -1.0}, -7.0)
        le(program, {y: 1.0}, 5.0)
        minimize(program, {y: 1.0})
        compiled = program.compile()
        assert BarrierSolver().solve(compiled).status is SolverStatus.INFEASIBLE
        assert BarrierSolver().feasible_point(compiled) is None
