"""The Newton kernel's block solves run in place, in LAPACK's own layout.

Each block's Hessian is one contiguous, column-by-column region of the flat
Hessian buffer and its right-hand sides one column-by-column region of the
flat right-hand-side buffer, so ``dposv`` factors and solves every block
where it lies, copying neither.  These tests pin that:

* the direction is bit for bit the one a per-block :func:`_spd_solve` of
  C-ordered copies gives, for blocks on both sides of ``_DPOSV_MAX_WIDTH``,
  with and without the phase-I border and the coupling rows;
* ``dposv`` really works in the workspace's buffers (a scipy whose wrapper
  copies would fail here, not just run slower);
* after a failed in-place factorisation, which leaves factors in the
  Hessian buffer, the dense step and the least-squares step run on a fresh
  assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solver import ConeProgram, barrier
from repro.core import SocpFormulation
from repro.taskgraph.generators import chain_configuration
from repro.taskgraph.workload import random_workload

from barrier_reference import barrier_reference
from program_rows import hyperbolic, le, minimize


def block_program(widths, coupled):
    """Blocks of the given widths, every variable boxed by two owned rows;
    ``coupled`` adds two rows across the blocks' first variables."""
    program = ConeProgram("blocks")
    blocks = [
        [program.add_variable(f"x{b}_{i}") for i in range(width)]
        for b, width in enumerate(widths)
    ]
    for block in blocks:
        for variable in block:
            le(program, {variable: 1.0}, 20.0)
            le(program, {variable: -1.0}, 20.0)
    if coupled:
        firsts = [block[0] for block in blocks]
        le(program, {variable: 1.0 for variable in firsts}, 30.0)
        le(program, {variable: -1.0 for variable in firsts}, 30.0)
    minimize(program, {blocks[0][0]: 1.0})
    program.declare_blocks(blocks)
    return program.compile()


def workspace_of(compiled, phase_one=False):
    layout = barrier.BarrierSolver()._layout(compiled)
    return barrier._StructuredWorkspace(
        layout.phase_one if phase_one else layout.phase_two,
        compiled.h,
        barrier._kernel_stats(),
        lower_bound=-1.0,
    )


def spd_solve_path(workspace, hess, grad, reg):
    """The arrow direction with each block solved by :func:`_spd_solve` on a
    C-ordered copy of the block and of its rows of one C-ordered
    ``[gradient | Gcᵀ | block–border columns]`` array; the border and
    coupling Schur complements follow, step for step, the kernel's."""
    layout = workspace.layout
    k, border, m, cols = workspace.k, workspace.border, workspace.m, workspace.cols
    core = k - border
    rows_at, columns_at = layout.coordinates()
    full = np.zeros((k, k))
    full[rows_at, columns_at] = hess
    rhs = np.empty((core, cols + border))
    rhs[:, 0] = grad[:core]
    rhs[:, 1:cols] = workspace.Gc[:, :core].T
    rhs[:, cols:] = hess[layout.cross]
    solved = np.empty((k, cols + border))
    for start, width in zip(layout.starts.tolist(), layout.widths.tolist()):
        rows = slice(start, start + width)
        block = np.ascontiguousarray(full[rows, rows])
        solved[rows] = barrier._spd_solve(block, rhs[rows])
    if border:
        cross, block_solved = rhs[:, cols:], solved[:core]
        schur = hess[layout.corner].sum(axis=0) + reg * np.eye(border)
        schur -= cross.T @ block_solved[:, cols:]
        border_rhs = np.empty((border, cols))
        border_rhs[:, 0] = grad[core:]
        border_rhs[:, 1:] = workspace.Gc[:, core:].T
        border_solution = barrier._spd_solve(
            schur, border_rhs - cross.T @ block_solved[:, :cols]
        )
        block_solved[:, :cols] -= block_solved[:, cols:] @ border_solution
        solved[core:, :cols] = border_solution
    if m:
        base, lifted, Gc = solved[:, 0], solved[:, 1:cols], workspace.Gc
        schur_c = np.diag(1.0 / workspace.weights) + Gc @ lifted
        multipliers = barrier._spd_solve(schur_c, Gc @ base)
        return -(base - lifted @ multipliers)
    return -solved[:, 0]


@pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled", "coupled"])
@pytest.mark.parametrize("phase_one", [False, True], ids=["border-0", "border-1"])
@pytest.mark.parametrize("width", [1, 19, 127, 128])
def test_in_place_solve_equals_the_spd_solve_path_bit_for_bit(width, phase_one, coupled):
    """Random SPD bordered blocks written into the flat buffer through
    :meth:`_PhaseLayout.coordinates`: the in-place arrow direction equals
    the per-block ``_spd_solve`` path exactly."""
    compiled = block_program([width, 19, width], coupled)
    workspace = workspace_of(compiled, phase_one)
    assert workspace.border == int(phase_one) and bool(workspace.m) == coupled
    assert len(workspace.wide) == (2 if width > barrier._DPOSV_MAX_WIDTH else 0)
    k = workspace.k
    rng = np.random.default_rng(width)
    factor = rng.standard_normal((k, k))
    spd = factor @ factor.T / k + np.eye(k)
    rows_at, columns_at = workspace.layout.coordinates()
    workspace.hess[:] = spd[rows_at, columns_at]
    workspace.weights = rng.uniform(0.5, 2.0, workspace.m)
    grad, reg = rng.standard_normal(k), 1e-9
    assembled = workspace.hess.copy()
    direction = workspace._arrow_direction(grad, reg)
    expected = spd_solve_path(workspace, assembled, grad, reg)
    assert np.array_equal(direction, expected)


class TestDposvWorksInTheBuffers:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every in-place ``dposv`` call with the arrays it returned (the
        test clears it before the step it inspects)."""
        calls = []
        dposv = barrier._dposv

        def recording(a, b, *flags, **options):
            result = dposv(a, b, *flags, **options)
            if flags == (1, 1, 1):
                calls.append((a, b, result))
            return result

        monkeypatch.setattr(barrier, "_dposv", recording)
        return calls

    def test_block_factors_and_solutions_stay_in_the_workspace(self, recorded):
        compiled = SocpFormulation(random_workload(4, seed=0)).build().compile()
        workspace = workspace_of(compiled)
        assert len(workspace.blocks) == 4 and workspace.m
        states, _ = workspace.evaluate(compiled_start(compiled))
        grad_objective = np.ones(workspace.k)
        workspace.assemble(grad_objective, states)
        blocks = [matrix.copy() for matrix, _ in workspace.blocks]
        recorded.clear()
        workspace.direction(grad_objective, states)
        assert len(recorded) == len(workspace.blocks)
        for (a, b, (factor, solution, info)), block in zip(recorded, blocks):
            assert info == 0
            assert np.shares_memory(factor, workspace.hess)
            assert np.shares_memory(solution, workspace.rhs)
            # The buffer now holds the block's Cholesky factor.
            assert np.allclose(np.tril(factor), np.linalg.cholesky(block), rtol=1e-12)

    def test_direct_solve_factors_the_flat_buffer(self, recorded):
        compiled = SocpFormulation(chain_configuration(stages=3)).build().compile()
        workspace = workspace_of(compiled)
        assert workspace.direct
        states, _ = workspace.evaluate(compiled_start(compiled))
        recorded.clear()
        workspace.direction(np.ones(workspace.k), states)
        ((a, b, (factor, _, info)),) = recorded
        assert info == 0 and np.shares_memory(factor, workspace.hess)


def compiled_start(compiled):
    """A strictly feasible point of ``compiled``: phase I's exit."""
    return barrier.BarrierSolver().feasible_point(compiled)


def indefinite_program(blocks, coupled):
    """Pairs of boxed variables, each pair with a hyperbolic term; the term
    of the second pair gets the bound -10 once compiled, which makes that
    pair's Hessian indefinite.  ``blocks`` declares one block per pair;
    ``coupled`` adds rows between the second pair and its neighbours whose
    curvature makes the whole system positive definite again."""
    program = ConeProgram("indefinite")
    x = [program.add_variable(f"x{i}") for i in range(6)]
    pairs = [x[0:2], x[2:4], x[4:6]]
    for pair in pairs:
        for variable in pair:
            le(program, {variable: 1.0}, 20.0)
            le(program, {variable: -1.0}, 20.0)
        hyperbolic(program, {pair[0]: 1.0}, 1.0, {pair[1]: 1.0}, 1.0, 0.5)
    if coupled:
        for left, right in [*zip(x[2:4], x[0:2]), *zip(x[2:4], x[4:6])]:
            le(program, {left: 1.0, right: 1.0}, 0.1)
            le(program, {left: 1.0, right: -1.0}, 0.1)
    minimize(program, {x[0]: 1.0})
    if blocks:
        program.declare_blocks(pairs)
    compiled = program.compile()
    # ConeProgram rejects a non-positive bound; the layout reads the
    # compiled one, so this must happen before it is built.
    assert compiled.kernel_layout is None
    compiled.hyperbolic.bound[1] = -10.0
    return compiled


class TestRescueAfterAFailedInPlaceFactorisation:
    """The first block is factored in place before the second fails, so the
    rescue must not read the Hessian buffer as the failure left it."""

    def direction_and_fresh(self, compiled):
        workspace, fresh = workspace_of(compiled), workspace_of(compiled)
        z = np.zeros(compiled.num_variables)
        grad_objective = np.random.default_rng(7).standard_normal(workspace.k)
        states = workspace.evaluate(z)[0]
        grad, direction = workspace.direction(grad_objective, states)
        fresh_grad, reg = fresh.assemble(grad_objective, fresh.evaluate(z)[0])
        assert np.array_equal(grad, fresh_grad)
        return workspace, fresh, grad, direction, reg

    def test_dense_step_solves_a_fresh_assembly(self):
        compiled = indefinite_program(blocks=True, coupled=True)
        workspace, fresh, grad, direction, reg = self.direction_and_fresh(compiled)
        assert len(workspace.blocks) == 3
        assert workspace.stats["fallback_iterations"] == 1
        assert workspace.stats["lstsq_steps"] == 0
        assert np.linalg.eigvalsh(barrier_reference(compiled, np.zeros(6))[2]).min() > 0.0
        expected = -barrier._spd_solve(fresh._assembled(reg), grad)
        assert np.array_equal(direction, expected)

    def test_least_squares_step_solves_a_fresh_assembly(self):
        compiled = indefinite_program(blocks=True, coupled=False)
        workspace, fresh, grad, direction, reg = self.direction_and_fresh(compiled)
        assert workspace.stats["fallback_iterations"] == 1
        assert workspace.stats["lstsq_steps"] == 1
        expected = -np.linalg.lstsq(fresh._assembled(reg), grad, rcond=None)[0]
        assert np.array_equal(direction, expected)

    def test_direct_least_squares_step_solves_a_fresh_assembly(self):
        compiled = indefinite_program(blocks=False, coupled=False)
        workspace, fresh, grad, direction, _ = self.direction_and_fresh(compiled)
        assert workspace.direct
        assert workspace.stats["lstsq_steps"] == 1
        k = workspace.k
        expected = -np.linalg.lstsq(fresh.hess.reshape(k, k).T, grad, rcond=None)[0]
        assert np.array_equal(direction, expected)
