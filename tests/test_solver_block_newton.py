"""Structured-vs-dense Newton equivalence and engagement tests.

The structured Newton kernel (per-application block factorisations +
Schur-complement coupling solve, see :mod:`repro.solver.barrier`) must be a
pure performance change: on any workload program it has to return the same
optimum as the dense kernel to solver precision, engage exactly for
multi-application programs with narrow coupling, and leave unstructured
programs on the dense kernel.  The dense reference is a fresh compile of the
same program with its block structure dropped, which the solver treats as a
single block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocatorOptions, JointAllocator
from repro.core.formulation import WorkloadSocpFormulation
from repro.exceptions import FormulationError
from repro.solver import ConeProgram
from repro.solver.backends import solve_compiled
from repro.taskgraph import Workload
from repro.taskgraph.generators import random_dag_configuration


def make_workload(app_count: int, seed: int = 3, task_count: int = 4) -> Workload:
    """``app_count`` random applications competing for one shared platform."""
    applications = [
        random_dag_configuration(
            task_count=task_count,
            processor_count=4,
            seed=seed + index,
            wcet_range=(0.3, 0.9),
        )
        for index in range(app_count)
    ]
    workload = Workload(applications[0].platform, name=f"structured-{app_count}")
    for index, application in enumerate(applications):
        workload.add_application(f"app{index}", application)
    return workload


def dense_reference(program: ConeProgram):
    """A fresh compile of ``program`` without its block structure.

    The solver treats it as a single block, so it runs the dense kernel.
    """
    compiled = program.compile()
    compiled.block_structure = None
    return compiled


def solve_both(formulation, initial_point=None):
    """The program solved with its blocks and as one block; returns both."""
    program = formulation.build()
    structured = solve_compiled(
        program.compile(), backend="barrier", initial_point=initial_point
    )
    dense = solve_compiled(
        dense_reference(program), backend="barrier", initial_point=initial_point
    )
    return structured, dense


def assert_equivalent(structured, dense, atol: float = 1e-8) -> None:
    assert structured.is_optimal and dense.is_optimal
    assert structured.stats["structured"] is True
    assert dense.stats["structured"] is False
    assert structured.objective == pytest.approx(dense.objective, abs=atol)
    point_s, point_d = structured.by_name(), dense.by_name()
    assert point_s.keys() == point_d.keys()
    for name, value in point_s.items():
        assert value == pytest.approx(point_d[name], abs=atol), name


class TestStructuredDenseEquivalence:
    @pytest.mark.parametrize("app_count,seed", [(2, 3), (2, 17), (3, 7), (4, 29)])
    def test_random_workloads_agree(self, app_count, seed):
        formulation = WorkloadSocpFormulation(make_workload(app_count, seed=seed))
        initial = None
        structured, dense = solve_both(formulation, initial)
        assert_equivalent(structured, dense)

    def test_warm_started_from_heuristic_point(self):
        formulation = WorkloadSocpFormulation(make_workload(3, seed=11))
        program = formulation.build()
        compiled = program.compile()
        initial = compiled.vector_from_mapping(formulation.initial_point())
        structured, dense = solve_both(formulation, initial)
        assert_equivalent(structured, dense)

    def test_phase_one_required_case(self):
        """Cold start from zeros violates λ·β ≥ 1, so phase I must run — and
        the structured kernel's phase I (relaxation variable as the arrow
        border) has to match the dense kernel's."""
        formulation = WorkloadSocpFormulation(make_workload(2, seed=5))
        structured, dense = solve_both(formulation, initial_point=None)
        assert structured.stats["phase1_skipped"] is False
        assert dense.stats["phase1_skipped"] is False
        assert structured.stats["phase1_newton_iterations"] > 0
        assert_equivalent(structured, dense)

    def test_pinned_bound_case(self):
        """A capacity limit landing on a buffer's lower bound compiles to an
        equality row; the per-application elimination must agree with the
        one-block elimination."""
        workload = make_workload(2, seed=3)
        application = workload.applications[0]
        buffer = application.configuration.task_graphs[0].buffers[0]
        pinned = int(np.ceil(buffer.smallest_feasible_capacity))
        formulation = WorkloadSocpFormulation(
            workload,
            capacity_limits={application.name: {buffer.name: pinned}},
        )
        compiled = formulation.build().compile()
        assert compiled.A.size > 0 or pinned > buffer.smallest_feasible_capacity
        structured, dense = solve_both(formulation)
        assert_equivalent(structured, dense)


class TestEngagement:
    def test_multi_application_allocation_engages_automatically(self):
        allocator = JointAllocator(
            options=AllocatorOptions(verify=False, run_simulation=False)
        )
        mapped = allocator.allocate_workload(make_workload(2, seed=3))
        assert mapped.solver_info["solve_stats"]["structured"] is True

    def test_single_application_stays_dense(self):
        """One block has nothing to decouple; it runs the dense kernel."""
        formulation = WorkloadSocpFormulation(make_workload(1, seed=3))
        solution = formulation.solve(backend="barrier")
        assert solution.is_optimal
        assert solution.stats["structured"] is False

    def test_unstructured_program_falls_back_to_dense(self):
        """A program without declared blocks carries no structure, so it is
        solved as one block on (and reports) the dense kernel."""
        program = ConeProgram("plain")
        x = program.add_variable("x", lower=0.1, upper=10.0)
        y = program.add_variable("y", lower=0.1, upper=10.0)
        program.add_hyperbolic(x, y, 4.0, name="xy")
        program.minimize(x + y)
        compiled = program.compile()
        assert compiled.block_structure is None
        solution = solve_compiled(compiled, backend="barrier")
        assert solution.is_optimal
        assert solution.stats["structured"] is False
        assert solution.objective == pytest.approx(4.0, abs=1e-5)

    def test_cross_block_cone_constraint_drops_structure(self):
        """Only linear rows may couple blocks: a hyperbolic constraint across
        two declared blocks cannot go through the Schur solve, so compilation
        emits no structure at all."""
        program = ConeProgram("cross")
        x = program.add_variable("x", lower=0.1, upper=10.0)
        y = program.add_variable("y", lower=0.1, upper=10.0)
        program.add_hyperbolic(x, y, 4.0, name="xy")
        program.minimize(x + y)
        program.declare_blocks([[x], [y]])
        assert program.compile().block_structure is None

    def test_fully_pinned_block_with_phase_one(self):
        """A block whose only variable collapses to an equality reduces to
        width zero; its border-only phase-I curvature (the ``t`` bound row is
        homed in block 0) must still enter the border Schur complement."""
        program = ConeProgram("pinned-block")
        x = program.add_variable("x", lower=2.0, upper=2.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        program.add_less_equal(x + y, 5.0, name="coupling")
        program.maximize(y)
        program.declare_blocks([[x], [y]])
        compiled = program.compile()
        assert compiled.block_structure is not None
        assert compiled.A.size > 0  # the collapsed bound became an equality
        structured = solve_compiled(compiled, backend="barrier")
        dense = solve_compiled(dense_reference(program), backend="barrier")
        assert structured.is_optimal and dense.is_optimal
        assert structured.stats["structured"] is True
        # Starting from zeros, y = 0 sits on its bound, so phase I must run.
        assert structured.stats["phase1_skipped"] is False
        assert structured.objective == pytest.approx(-3.0, abs=1e-6)
        assert structured.by_name()["y"] == pytest.approx(
            dense.by_name()["y"], abs=1e-8
        )

    def test_declare_blocks_rejects_foreign_variables(self):
        program = ConeProgram("a")
        other = ConeProgram("b")
        foreign = other.add_variable("x")
        with pytest.raises(FormulationError):
            program.declare_blocks([[foreign]])


class TestBlockStructureCompilation:
    def test_workload_structure_shape(self):
        formulation = WorkloadSocpFormulation(make_workload(3, seed=3))
        compiled = formulation.build().compile()
        structure = compiled.block_structure
        assert structure is not None
        assert structure.num_blocks == 3
        # The ranges partition the variables contiguously and in order.
        expected_start = 0
        for start, stop in structure.ranges:
            assert start == expected_start
            assert stop > start
            expected_start = stop
        assert expected_start == compiled.num_variables
        # The coupling rows are exactly the shared capacity rows.
        coupling_names = {
            compiled.inequality_names[row] for row in structure.coupling_rows
        }
        assert coupling_names
        for name in coupling_names:
            assert name.startswith("processor[") or name.startswith("memory[")
        # Every non-coupling constraint is confined to one block.
        assert np.all(structure.row_blocks >= -1)
        assert len(structure.hyperbolic_blocks) == len(compiled.hyperbolic)

    def test_one_block_case_keeps_structure_but_not_engagement(self):
        formulation = WorkloadSocpFormulation(make_workload(1, seed=3))
        compiled = formulation.build().compile()
        assert compiled.block_structure is not None
        assert compiled.block_structure.num_blocks == 1


class TestEliminationCache:
    def test_session_computes_elimination_once(self):
        """A compile-once workload session reuses the cached null-space basis
        across every re-solve of the sweep."""
        workload = make_workload(2, seed=3)
        allocator = JointAllocator(
            options=AllocatorOptions(verify=False, run_simulation=False)
        )
        session = allocator.workload_session(workload)
        application = workload.applications[0]
        buffers = application.configuration.task_graphs[0].buffers
        for limit in (8, 7, 6):
            session.allocate(
                capacity_limits={
                    application.name: {buffer.name: limit for buffer in buffers}
                }
            )
        assert session.stats.solves == 3
        assert session.stats.rebuilds == 0
        assert session.stats.eliminations == 1

    def test_repeat_solve_reuses_cache(self):
        formulation = WorkloadSocpFormulation(make_workload(2, seed=3))
        compiled = formulation.build().compile()
        first = solve_compiled(compiled, backend="barrier")
        second = solve_compiled(compiled, backend="barrier")
        assert first.stats["elimination_computed"] is True
        assert second.stats["elimination_computed"] is False
        assert second.objective == pytest.approx(first.objective, abs=1e-9)
