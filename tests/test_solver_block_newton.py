"""Structured-vs-dense Newton equivalence and engagement tests.

The arrow solve of the Newton kernel (per-application block factorisations +
Schur-complement coupling solve, see :mod:`repro.solver.barrier`) must be a
pure performance change: on any workload program it has to return the same
optimum as the one-block direct solve to solver precision, engage exactly
for multi-application programs, and leave unstructured programs on the
direct solve.  The dense reference is a fresh compile of the same program
with its block structure dropped, which the solver treats as a single block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocatorOptions, JointAllocator, SocpFormulation
from repro.core.formulation import WorkloadSocpFormulation
from repro.exceptions import FormulationError
from repro.solver import ConeProgram, barrier
from repro.solver.backends import solve_compiled
from repro.taskgraph import Workload
from repro.taskgraph.generators import random_dag_configuration
from repro.taskgraph.workload import random_workload

from barrier_reference import barrier_reference, first_rung_center, relative
from program_rows import hyperbolic, le, minimize, row


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

    The solver treats it as a single block, so it takes the direct solve.
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
        structured, dense = solve_both(formulation, formulation.initial_point())
        assert_equivalent(structured, dense)

    def test_phase_one_required_case(self):
        """Cold start from zeros violates λ·β ≥ 1, so phase I must run — and
        the structured kernel's phase I (relaxation variable as the arrow
        border) has to match the one-block direct solve's."""
        formulation = WorkloadSocpFormulation(make_workload(2, seed=5))
        structured, dense = solve_both(formulation, initial_point=None)
        assert structured.stats["phase1_skipped"] is False
        assert dense.stats["phase1_skipped"] is False
        assert structured.stats["phase1_newton_iterations"] > 0
        assert_equivalent(structured, dense)

    def test_pinned_bound_case(self):
        """A capacity limit landing on a buffer's lower bound substitutes the
        capacity out; the per-application solve must agree with the
        one-block solve."""
        workload = make_workload(2, seed=3)
        application = workload.applications[0]
        buffer = application.configuration.task_graphs[0].buffers[0]
        pinned = int(np.ceil(buffer.smallest_feasible_capacity))
        formulation = WorkloadSocpFormulation(
            workload,
            capacity_limits={application.name: {buffer.name: pinned}},
        )
        compiled = formulation.build().compile()
        assert compiled.substitutions or pinned > buffer.smallest_feasible_capacity
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
        """One block has nothing to decouple; it takes the direct solve."""
        formulation = WorkloadSocpFormulation(make_workload(1, seed=3))
        solution = formulation.solve(backend="barrier")
        assert solution.is_optimal
        assert solution.stats["structured"] is False

    def test_unstructured_program_falls_back_to_dense(self):
        """A program without declared blocks carries no structure, so it is
        solved as one block (a direct solve, reported as not structured)."""
        program = ConeProgram("plain")
        x = program.add_variable("x", lower=0.1, upper=10.0)
        y = program.add_variable("y", lower=0.1, upper=10.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, 4.0, name="xy")
        minimize(program, {x: 1.0, y: 1.0})
        compiled = program.compile()
        assert compiled.block_structure is None
        solution = solve_compiled(compiled, backend="barrier")
        assert solution.is_optimal
        assert solution.stats["structured"] is False
        assert solution.objective == pytest.approx(4.0, abs=1e-5)

    def test_cross_block_cone_constraint_drops_structure(self):
        """Only linear rows may couple blocks: a hyperbolic constraint (the
        one cone kind) across two declared blocks cannot go through the
        Schur solve, so compilation emits no structure at all, while the
        same term inside one block keeps it."""
        program = ConeProgram("cross")
        x = program.add_variable("x", lower=0.1, upper=10.0)
        y = program.add_variable("y", lower=0.1, upper=10.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, 4.0, name="xy")
        minimize(program, {x: 1.0, y: 1.0})
        program.declare_blocks([[x], [y]])
        assert program.compile().block_structure is None
        program.declare_blocks([[x, y]])
        structure = program.compile().block_structure
        assert structure is not None and structure.ranges == [(0, 2)]
        assert structure.hyperbolic_blocks.tolist() == [0]

    def test_fully_pinned_block_with_phase_one(self):
        """A block whose only variable is substituted out has width zero; its border-only phase-I curvature (the ``t`` bound row is
        homed in block 0) must still enter the border Schur complement."""
        program = ConeProgram("pinned-block")
        x = program.add_variable("x", lower=2.0, upper=2.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        le(program, {x: 1.0, y: 1.0}, 5.0, name="coupling")
        minimize(program, {y: -1.0})
        program.declare_blocks([[x], [y]])
        compiled = program.compile()
        assert compiled.block_structure is not None
        # The collapsed bound substituted x out, leaving block 0 empty.
        assert compiled.variables == [y]
        assert compiled.block_structure.ranges == [(0, 0), (0, 1)]
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


class TestPiecesCache:
    """The kernel layout is cached on the compiled problem; the
    ``pieces_cache_reused`` stat reports its reuse."""

    def test_repeat_solve_reuses_cache(self):
        formulation = WorkloadSocpFormulation(make_workload(2, seed=3))
        compiled = formulation.build().compile()
        first = solve_compiled(compiled, backend="barrier")
        layout = compiled.kernel_layout
        second = solve_compiled(compiled, backend="barrier")
        assert first.stats["pieces_cache_reused"] is False
        assert second.stats["pieces_cache_reused"] is True
        assert compiled.kernel_layout is layout
        assert second.objective == pytest.approx(first.objective, abs=1e-9)


def layout_arrays(layout):
    """Every array of both phase layouts built so far, by a readable key."""
    arrays = {}
    for phase in ("phase_two", "phase_one"):
        built = layout.__dict__.get(phase)
        if built is None:
            continue
        for name, value in vars(built).items():
            if isinstance(value, np.ndarray):
                arrays[phase, name] = value
    return arrays


def newton_counts(solution):
    stats = solution.stats
    return stats["phase1_newton_iterations"], stats["newton_iterations"]


class TestKernelLayoutReuse:
    """The layout is built once per compiled problem and shared by every
    later solve, however ``h`` is edited in place in between (as admission's
    anytime verdict tightens shared rows): it stays read-only and
    unchanged, and a solve that reuses it is bit-identical to the solve that
    built it."""

    @staticmethod
    def compiled_with_processor_row():
        """A two-application program and the index of one of its shared
        processor rows (a coupling row)."""
        compiled = WorkloadSocpFormulation(make_workload(2, seed=3)).build().compile()
        row = next(
            index
            for index in compiled.block_structure.coupling_rows
            if compiled.inequality_names[index].startswith("processor[")
        )
        return compiled, row

    def test_session_sweep_leaves_the_layout_unchanged(self):
        """A sweep of solves over one compiled problem whose ``h`` moves."""
        compiled, row = self.compiled_with_processor_row()
        base = float(compiled.h[row])
        assert solve_compiled(compiled, backend="barrier").is_optimal
        layout = compiled.kernel_layout
        # The cold first solve ran phase I, so both phase layouts are built.
        assert layout.__dict__.get("phase_one") is not None
        before = {key: array.copy() for key, array in layout_arrays(layout).items()}
        for factor in (1.25, 1.5, 2.0):
            compiled.h[row] = base * factor
            solution = solve_compiled(compiled, backend="barrier")
            assert solution.is_optimal
            assert solution.stats["pieces_cache_reused"] is True
        assert compiled.kernel_layout is layout
        after = layout_arrays(layout)
        assert after.keys() == before.keys()
        for key, array in after.items():
            assert not array.flags.writeable, key
            assert np.array_equal(array, before[key]), key

    def test_cold_solve_reusing_the_layout_is_bit_identical(self):
        compiled = WorkloadSocpFormulation(make_workload(3, seed=7)).build().compile()
        building = solve_compiled(compiled, backend="barrier")
        reusing = solve_compiled(compiled, backend="barrier")
        assert building.stats["pieces_cache_reused"] is False
        assert reusing.stats["pieces_cache_reused"] is True
        assert building.stats["phase1_skipped"] is False
        assert reusing.objective == building.objective
        assert newton_counts(reusing) == newton_counts(building)

    def test_moving_a_row_and_back_is_bit_identical(self):
        compiled, row = self.compiled_with_processor_row()
        base = float(compiled.h[row])
        building = solve_compiled(compiled, backend="barrier")
        compiled.h[row] = 1.5 * base
        assert solve_compiled(compiled, backend="barrier").is_optimal
        compiled.h[row] = base
        back = solve_compiled(compiled, backend="barrier")
        assert back.stats["pieces_cache_reused"] is True
        assert back.objective == building.objective
        assert newton_counts(back) == newton_counts(building)


def phase_one_start(compiled):
    """Phase I's start at ``z = 0``: the point ``(0, t)`` and the lower
    bound :meth:`BarrierSolver._phase_one` would pick."""
    k = compiled.num_variables
    needed = barrier.BarrierSolver()._required_relaxation(compiled, np.zeros(k))
    point = np.append(np.zeros(k), needed + max(1.0, 0.1 * abs(needed)))
    return point, -max(1.0, abs(needed))


def both_phases(compiled):
    """The phase-II and phase-I workspaces of ``compiled``, each with a
    strictly feasible point and its lower bound (``None`` in phase II).

    Phase II is evaluated at the first-rung center of a structured solve
    (well interior); phase I at the cold start ``z = 0`` with the relaxation
    ``t`` and lower bound :meth:`BarrierSolver._phase_one` would pick.
    """
    z_two = first_rung_center(compiled)
    layout = barrier.BarrierSolver()._layout(compiled)
    z_one, lower_bound = phase_one_start(compiled)
    return [
        (new_workspace(layout.phase_two, compiled), None, z_two),
        (new_workspace(layout.phase_one, compiled, lower_bound), lower_bound, z_one),
    ]


def workload_program(seed):
    return WorkloadSocpFormulation(random_workload(8, seed=seed)).build().compile()


def one_block_program():
    """A one-block program: ``t`` is folded into the block in phase I, so
    both phases take the direct solve."""
    return SocpFormulation(random_dag_configuration(6, 4, seed=1)).build().compile()


def new_workspace(phase_layout, compiled, lower_bound=0.0):
    return barrier._StructuredWorkspace(
        phase_layout,
        compiled.h,
        barrier._kernel_stats(),
        lower_bound=lower_bound,
    )


def kernel_assembly(workspace, z):
    """The barrier value, gradient and Hessian as the kernel assembles them
    from one evaluation: the bordered block Hessians scattered into full
    coordinates plus the coupling rows' terms, without the regularization."""
    state, phi = workspace.evaluate(z)
    assert phi < np.inf
    grad, reg = workspace.assemble(np.zeros(workspace.k), state)
    hess = workspace._assembled(reg) - reg * np.eye(workspace.k)
    return phi, grad, hess


def assert_kernel_matches_reference(compiled, workspace, z, lower_bound):
    """The kernel's gradient and Hessian = the full-width reference to
    1e-12, and its direction = a dense solve of the reference system (with
    the regularization) to 1e-10, both relative."""
    reference = barrier_reference(compiled, z, lower_bound)
    assert reference is not None
    value_ref, grad_ref, hess_ref = reference
    phi, grad, hess = kernel_assembly(workspace, z)
    assert phi == pytest.approx(value_ref, rel=1e-12, abs=1e-12)
    assert relative(grad, grad_ref) <= 1e-12
    assert relative(hess, hess_ref) <= 1e-12
    k = workspace.k
    grad_objective = np.random.default_rng(0).standard_normal(k)
    g_s, d_s = workspace.direction(grad_objective, workspace.evaluate(z)[0])
    g_ref = grad_ref + grad_objective
    reg = barrier._OPTIONS.regularization * (1.0 + np.trace(hess_ref) / k)
    h_ref = hess_ref + reg * np.eye(k)
    assert workspace.stats["lstsq_steps"] == 0
    assert workspace.stats["fallback_iterations"] == 0
    assert relative(g_s, g_ref) <= 1e-12
    assert relative(d_s, -np.linalg.solve(h_ref, g_ref)) <= 1e-10
    return workspace


def assert_relaxed_t_column(compiled, workspace):
    """Phase I's ``t`` column, the last of the layout's rows: ``−1`` on
    every linear row (the lower-bound row and the coupling rows included),
    ``½`` in ``P`` and ``Q`` of every hyperbolic term, and nothing else."""
    layout = workspace.layout
    on_t = layout.column == layout.k - 1
    linear = layout.linear
    assert linear == compiled.h.size + 1
    assert layout.row[on_t].tolist() == list(range(linear + 2 * len(compiled.hyperbolic)))
    t_value = layout.value[on_t]
    assert np.all(t_value[:linear] == -1.0) and np.all(t_value[linear:] == 0.5)
    assert np.all(workspace.Gc[:, -1] == -1.0)


class TestStackedAssembly:
    """The Newton kernel builds every block's gradient and Hessian from the
    layout's CSR rows and scatter plan; it must agree with the full-width
    reference barrier of the compiled problem."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_two_matches_dense(self, seed):
        compiled = workload_program(seed)
        workspace, lower_bound, z = both_phases(compiled)[0]
        assert workspace.border == 0 and lower_bound is None
        assert_kernel_matches_reference(compiled, workspace, z, lower_bound)
        assert workspace.stats["block_factorizations"] == 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_one_matches_dense(self, seed):
        """Phase I carries the border, block 0's lower-bound row and the
        relaxed hyperbolic terms ``(p + t/2)(q + t/2) ≥ w``."""
        compiled = workload_program(seed)
        workspace, lower_bound, z = both_phases(compiled)[1]
        assert workspace.border == 1
        assert_relaxed_t_column(compiled, workspace)
        assert_kernel_matches_reference(compiled, workspace, z, lower_bound)
        assert workspace.stats["block_factorizations"] == 8

    def test_one_block_plans_match_dense(self):
        """A one-block program's phase II, and its phase I with ``t`` folded
        into the block, assemble one block and take the direct solve."""
        compiled = one_block_program()
        k = compiled.num_variables
        (two, _, z_two), (one, lower_bound, z_one) = both_phases(compiled)
        assert two.border == 0 and one.border == 0
        assert one.k == k + 1
        assert one.layout.starts.tolist() == [0]
        assert one.layout.widths.tolist() == [k + 1]
        assert_relaxed_t_column(compiled, one)
        for workspace, bound, z in ((two, None, z_two), (one, lower_bound, z_one)):
            assert_kernel_matches_reference(compiled, workspace, z, bound)
            assert workspace.direct
            assert workspace.layout.hess_size == workspace.k**2
            assert workspace.stats["block_factorizations"] == 1

    def test_width_zero_phase_one_block(self):
        program = ConeProgram("pinned-block")
        x = program.add_variable("x", lower=2.0, upper=2.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        le(program, {x: 1.0, y: 1.0}, 5.0, name="coupling")
        minimize(program, {y: -1.0})
        program.declare_blocks([[x], [y]])
        compiled = program.compile()
        for workspace, lower_bound, z in both_phases(compiled):
            assert_kernel_matches_reference(compiled, workspace, z, lower_bound)
            if workspace.border:
                assert 0 in workspace.layout.widths.tolist()


def hand_program(kind, counts, width, seed=0):
    """A program of ``len(counts)`` declared blocks of ``width`` free
    variables, block ``j`` holding ``counts[j]`` random constraints of one
    kind (``"linear"`` rows or ``"hyperbolic"`` terms), strictly feasible
    at the returned point."""
    rng = np.random.default_rng(seed)
    program = ConeProgram(f"hand-{kind}")
    z = rng.uniform(-0.5, 0.5, width * len(counts))
    variables = [program.add_variable(f"x{i}") for i in range(z.size)]
    blocks = []
    for j, count in enumerate(counts):
        block = variables[j * width : (j + 1) * width]
        local = z[j * width : (j + 1) * width]
        blocks.append(block)
        for _ in range(count):
            if kind == "linear":
                g = rng.standard_normal(width)
                le(program, dict(zip(block, g)), float(g @ local + rng.uniform(0.5, 2.0)))
            else:
                p, q = rng.standard_normal(width), rng.standard_normal(width)
                hyperbolic(
                    program,
                    dict(zip(block, p)), 1.0 - p @ local,
                    dict(zip(block, q)), 2.0 - q @ local,
                    0.5,
                )
    minimize(program, {variables[0]: 1.0})
    program.declare_blocks(blocks)
    compiled = program.compile()
    assert compiled.block_structure is not None
    return compiled, z


class TestGramAssembly:
    """Blocks holding only linear rows or only hyperbolic terms, one or
    several blocks with different counts: the kernel's gradient and Hessian
    must reproduce the full-width reference."""

    @pytest.mark.parametrize("kind", ["linear", "hyperbolic"])
    @pytest.mark.parametrize("counts", [(3, 5, 1), (4,)], ids=["ragged", "one"])
    def test_gram_matches_reference(self, kind, counts):
        compiled, z = hand_program(kind, counts, width=4)
        layout = barrier.BarrierSolver()._layout(compiled)
        workspace = new_workspace(layout.phase_two, compiled)
        assert workspace.layout.blocks == len(counts) and workspace.m == 0
        value_ref, grad_ref, hess_ref = barrier_reference(compiled, z)
        phi, grad, hess = kernel_assembly(workspace, z)
        assert phi == pytest.approx(value_ref, rel=1e-12)
        assert relative(grad, grad_ref) <= 1e-12
        assert relative(hess, hess_ref) <= 1e-12


def mixed_program(seed, specs, coupling, pinned):
    """A program of declared blocks, strictly feasible at the returned point.

    Block ``j`` of ``specs`` has ``(width, rows, terms)``: ``width`` free
    variables, ``rows`` random linear rows (the first touches every column
    of the block, the others a random subset) and ``terms`` hyperbolic
    terms over random subsets.  ``coupling`` dense rows span every block,
    and with ``pinned`` a first block holds one fixed variable, which
    compilation substitutes out: a width-0 block, which homes phase I's
    lower-bound row.
    """
    rng = np.random.default_rng(seed)
    program = ConeProgram("mixed")
    blocks, points = [], []
    if pinned:
        blocks.append([program.add_variable("pinned", lower=1.0, upper=1.0)])

    def expression(block, local, columns, constant=0.0):
        """Random coefficients on ``columns`` and the offset that makes the
        row equal ``constant`` at ``local``, as ``(terms, offset)``."""
        coefficients = rng.standard_normal(columns.size)
        terms = {block[i]: c for i, c in zip(columns.tolist(), coefficients)}
        return terms, constant - float(coefficients @ local[columns])

    def subset(width):
        size = int(rng.integers(1, width + 1))
        return np.sort(rng.choice(width, size=size, replace=False))

    for j, (width, rows, terms) in enumerate(specs):
        block = [program.add_variable(f"b{j}x{i}") for i in range(width)]
        local = rng.uniform(-0.5, 0.5, width)
        blocks.append(block)
        points.append(local)
        for r in range(rows):
            columns = np.arange(width) if r == 0 else subset(width)
            linear, offset = expression(block, local, columns)
            program.add_rows(row(program, linear, offset - float(rng.uniform(0.5, 2.0))), [""])
        for _ in range(terms):
            p = expression(block, local, subset(width), rng.uniform(0.5, 2.0))
            q = expression(block, local, subset(width), rng.uniform(0.5, 2.0))
            hyperbolic(program, *p, *q, 0.25)
    z = np.concatenate(points)
    free = [variable for block in blocks[int(pinned):] for variable in block]
    for _ in range(coupling):
        linear, offset = expression(free, z, np.arange(z.size))
        if pinned:
            linear[blocks[0][0]] = 0.7
            offset -= 0.7
        program.add_rows(row(program, linear, offset - float(rng.uniform(0.5, 2.0))), [""])
    minimize(program, {free[0]: 1.0})
    program.declare_blocks(blocks)
    compiled = program.compile()
    assert compiled.block_structure is not None
    assert compiled.num_variables == z.size
    return compiled, z


#: a one-block program, and one with a pinned width-0 block, a block
#: without hyperbolic terms, a block without linear rows and coupling rows;
#: each block's own terms make its Hessian well conditioned, so the arrow
#: solve's block factorisations lose no digits
MIXED = {
    "one-block": dict(specs=((5, 4, 2),), coupling=0, pinned=False),
    "multi-block": dict(
        specs=((3, 5, 2), (2, 0, 3), (3, 5, 0)), coupling=3, pinned=True
    ),
}


class TestScatterAssembly:
    """The flat kernel against the full-width reference on hand-made
    programs: gradient, Hessian and Newton direction, each to 1e-12
    relative, in both phases."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(MIXED))
    def test_matches_reference(self, case, seed):
        compiled, z = mixed_program(seed, **MIXED[case])
        layout = barrier.BarrierSolver()._layout(compiled)
        z_one, lower_bound = phase_one_start(compiled)
        phases = (
            (new_workspace(layout.phase_two, compiled), z, None),
            (new_workspace(layout.phase_one, compiled, lower_bound), z_one, lower_bound),
        )
        for workspace, point, bound in phases:
            value_ref, grad_ref, hess_ref = barrier_reference(compiled, point, bound)
            phi, grad, hess = kernel_assembly(workspace, point)
            assert phi == pytest.approx(value_ref, rel=1e-12)
            assert relative(grad, grad_ref) <= 1e-12
            assert relative(hess, hess_ref) <= 1e-12
            k = workspace.k
            grad_objective = np.random.default_rng(seed).standard_normal(k)
            g_kernel, direction = workspace.direction(
                grad_objective, workspace.evaluate(point)[0]
            )
            reg = barrier._OPTIONS.regularization * (1.0 + np.trace(hess_ref) / k)
            expected = -np.linalg.solve(hess_ref + reg * np.eye(k), grad_ref + grad_objective)
            assert relative(g_kernel, grad_ref + grad_objective) <= 1e-12
            assert relative(direction, expected) <= 1e-12
            assert workspace.stats["fallback_iterations"] == 0
            assert workspace.stats["lstsq_steps"] == 0
        two, one = (workspace for workspace, _, _ in phases)
        if case == "one-block":
            assert two.direct and one.direct and one.border == 0
        else:
            assert one.border == 1 and two.m == one.m == 3
            assert one.layout.widths.tolist() == [0, 3, 2, 3]

    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_plan_is_the_owned_pairs(self, seed):
        """Every owned row adds ``(nnz + border)²`` plan entries and every
        term ``(nnz(P) + nnz(Q) + 2·border)²``, phase I's lower-bound row
        ``border²``: the plan holds the structural pairs of the rows and
        nothing denser, and it targets the flat buffer of bordered blocks."""
        compiled = workload_program(seed)
        layout = barrier.BarrierSolver()._layout(compiled)
        owned = compiled.block_structure.row_blocks >= 0
        nnz = np.diff(compiled.G_sparse.indptr)[owned]
        hyp = compiled.hyperbolic
        pairs = np.diff(hyp.P.indptr) + np.diff(hyp.Q.indptr)
        for phase, border in ((layout.phase_two, 0), (layout.phase_one, 1)):
            assert phase.border == border and phase.blocks == 8
            expected = (
                ((nnz + border) ** 2).sum()
                + border
                + ((pairs + 2 * border) ** 2).sum()
            )
            assert phase.target.size == phase.coef.size == phase.slot.size == expected
            assert phase.hess_size == ((phase.widths + border) ** 2).sum()
            assert 0 <= phase.target.min() and phase.target.max() < phase.hess_size


def soc_barrier(P, p0, Q, q0, w, y):
    """The phase-I hyperbolic relaxation in its second-order cone form,
    ``‖(2√w, p − q)‖ ≤ p + q + t`` at ``y = (z, t)``: the barrier
    ``−Σ log((p + q + t)² − 4w − (p − q)²)`` with its gradient and Hessian,
    or ``None`` off the branch ``p + q + t > 0`` or outside the cone."""
    z, t = y[:-1], y[-1]
    p, q = P @ z + p0, Q @ z + q0
    v, d = p + q + t, p - q
    f = v * v - 4.0 * w - d * d
    if v.min() <= 0.0 or f.min() <= 0.0:
        return None
    ones = np.ones((w.size, 1))
    Dv = np.hstack([P + Q, ones])         # ∇v
    Dd = np.hstack([P - Q, 0.0 * ones])   # ∇(p − q)
    Df = 2.0 * v[:, None] * Dv - 2.0 * d[:, None] * Dd
    inv = 1.0 / f
    grad = -(Df.T @ inv)
    # Σ ∇f∇fᵀ/f² − Σ ∇²f/f with ∇²f = 2(∇v∇vᵀ − ∇d∇dᵀ).
    hess = (Df * (inv * inv)[:, None]).T @ Df
    hess -= 2.0 * ((Dv * inv[:, None]).T @ Dv - (Dd * inv[:, None]).T @ Dd)
    return -float(np.log(f).sum()), grad, hess


#: a phase-I lower bound far below every ``t`` these tests evaluate at
FAR_BOUND = -1e9


def relaxed_program(seed, count=6, width=4):
    """Random hyperbolic data with ``(p + t/2)(q + t/2) > w`` at a random
    ``y = (z, t)``, compiled as a program of ``count`` hyperbolic terms
    over ``width`` free variables."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((count, width))
    Q = rng.standard_normal((count, width))
    z = rng.uniform(-1.0, 1.0, width)
    t = rng.uniform(-0.5, 0.5)
    p0 = rng.uniform(0.5, 2.0, count) - P @ z
    q0 = rng.uniform(0.5, 2.0, count) - Q @ z
    shifted = (P @ z + p0 + t / 2.0) * (Q @ z + q0 + t / 2.0)
    w = rng.uniform(0.1, 0.9, count) * shifted
    program = ConeProgram("relaxed")
    variables = [program.add_variable(f"x{i}") for i in range(width)]
    for i in range(count):
        hyperbolic(
            program,
            dict(zip(variables, P[i])), p0[i],
            dict(zip(variables, Q[i])), q0[i],
            w[i],
        )
    minimize(program, {variables[0]: 1.0})
    compiled = program.compile()
    assert compiled.h.size == 0
    return (P, p0, Q, q0, w), compiled, np.append(z, t), rng


def bound_row_barrier(y):
    """Value, gradient and Hessian of phase I's lower-bound row
    ``−t ≤ −FAR_BOUND`` at ``y = (z, t)``."""
    slack = y[-1] - FAR_BOUND
    grad = np.zeros(y.size)
    grad[-1] = -1.0 / slack
    hess = np.zeros((y.size, y.size))
    hess[-1, -1] = 1.0 / slack**2
    return -np.log(slack), grad, hess


class TestPhaseOneRelaxation:
    """Phase I relaxes ``p·q ≥ w`` as ``(p + t/2)(q + t/2) ≥ w``.  Since
    ``(p + q + t)² − 4w − (p − q)² = 4·((p + t/2)(q + t/2) − w)``, its
    barrier is the rotated cone ``‖(2√w, p − q)‖ ≤ p + q + t``'s plus the
    constant ``log 4`` per term: same gradient, Hessian and domain.  The
    full-width reference and the kernel's phase-I layout must both be
    exactly that relaxation (plus the lower-bound row on ``t``)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_second_order_cone_barrier(self, seed):
        data, compiled, y, _ = relaxed_program(seed)
        soc_value, soc_grad, soc_hess = soc_barrier(*data, y)
        bound_value, bound_grad, bound_hess = bound_row_barrier(y)
        value, grad, hess = barrier_reference(compiled, y, FAR_BOUND)
        assert relative(grad, soc_grad + bound_grad) <= 1e-12
        assert relative(hess, soc_hess + bound_hess) <= 1e-12
        count = data[-1].size
        assert value - bound_value - soc_value == pytest.approx(
            count * np.log(4.0), rel=1e-12
        )
        workspace = new_workspace(
            barrier.BarrierSolver()._layout(compiled).phase_one, compiled, FAR_BOUND
        )
        phi, grad_kernel, hess_kernel = kernel_assembly(workspace, y)
        assert phi == pytest.approx(value, rel=1e-12)
        assert relative(grad_kernel, grad) <= 1e-12
        assert relative(hess_kernel, hess) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rejects_the_same_points(self, seed):
        """Random points on both sides of the cone, and points on the
        negative branch (``p + t/2 < 0`` and ``q + t/2 < 0`` with a product
        above ``w``), which the cone form, the reference and the kernel all
        reject."""
        data, compiled, y, rng = relaxed_program(seed)
        P, p0, Q, q0, w = data
        workspace = new_workspace(
            barrier.BarrierSolver()._layout(compiled).phase_one, compiled, FAR_BOUND
        )
        points = [y + rng.normal(0.0, 1.5, y.size) for _ in range(200)]
        z = y[:-1]
        for scale in (1.0, 3.0):
            # t so negative that both shifted sides are ≤ −scale·max|side|.
            sides = np.concatenate([P @ z + p0, Q @ z + q0])
            t = -2.0 * (np.abs(sides).max() + scale * (1.0 + np.sqrt(w.max())))
            points.append(np.append(z, t))
        rejected = 0
        for point in points:
            soc = soc_barrier(*data, point)
            reference = barrier_reference(compiled, point, FAR_BOUND)
            states, phi = workspace.evaluate(point)
            assert (reference is None) == (soc is None), point
            assert (states is None) == (soc is None), point
            assert (phi == np.inf) == (soc is None)
            rejected += soc is None
        assert 0 < rejected < len(points)


class TestNaturalFactorisationFailure:
    def test_indefinite_block_takes_the_dense_step(self):
        """No fault armed: the second block's hyperbolic term has a negative
        bound, which makes its Hessian indefinite; the coupling rows make
        the whole system positive definite again.  The arrow solve must
        raise, and the direction must come from the dense step on the same
        system."""
        rng = np.random.default_rng(4)
        program = ConeProgram("indefinite")
        x = [program.add_variable(f"x{i}") for i in range(4)]
        blocks = [x[:2], x[2:]]
        for block in blocks:
            for variable in block:
                le(program, {variable: 1.0}, 20.0)
                le(program, {variable: -1.0}, 20.0)
            hyperbolic(program, {block[0]: 1.0}, 1.0, {block[1]: 1.0}, 1.0, 0.5)
        for left, right in zip(x[:2], x[2:]):
            le(program, {left: 1.0, right: 1.0}, 0.1)
            le(program, {left: 1.0, right: -1.0}, 0.1)
        minimize(program, {x[0]: 1.0})
        program.declare_blocks(blocks)
        compiled = program.compile()
        # ConeProgram rejects a non-positive bound; the layout reads the
        # compiled one, so this must happen before it is built.
        assert compiled.kernel_layout is None
        compiled.hyperbolic.bound[1] = -10.0
        k, z = compiled.num_variables, np.zeros(4)
        workspace = new_workspace(
            barrier.BarrierSolver()._layout(compiled).phase_two, compiled
        )
        assert workspace.layout.blocks == 2 and workspace.m == 4

        grad_objective = rng.standard_normal(k)
        grad, direction = workspace.direction(
            grad_objective, workspace.evaluate(z)[0]
        )
        eigenvalues = [np.linalg.eigvalsh(block).min() for _, block in workspace.blocks]
        assert eigenvalues[0] > 0.0 > eigenvalues[1]
        assert workspace.stats["fallback_iterations"] == 1
        assert workspace.stats["lstsq_steps"] == 0

        _, g_ref, h_ref = barrier_reference(compiled, z)
        g_ref = g_ref + grad_objective
        reg = barrier._OPTIONS.regularization * (1.0 + np.trace(h_ref) / k)
        h_ref = h_ref + reg * np.eye(k)
        assert np.linalg.eigvalsh(h_ref).min() > 0.0
        assert relative(grad, g_ref) <= 1e-12
        assert relative(direction, -np.linalg.solve(h_ref, g_ref)) <= 1e-10
        with pytest.raises(np.linalg.LinAlgError):
            workspace._arrow_direction(grad, reg)
