"""The Newton kernel: one evaluation per trial point, one Cholesky per step.

Every solve runs on :class:`repro.solver.barrier._StructuredWorkspace`.  Its
Newton loop must evaluate every line-search trial point exactly once — one
product with the layout's rows, none inside a direction (the accepted
trial's state feeds the next direction).  A one-block program solves
its assembled block with one LAPACK Cholesky and takes a counted
least-squares step only when that Cholesky fails; a multi-block program
whose arrow factorisation fails takes one dense step on the assembled
system.  The full-width barrier of :mod:`barrier_reference`, computed
straight from the compiled problem, is the reference the kernel is checked
against.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import SocpFormulation
from repro.core.formulation import WorkloadSocpFormulation
from repro.exceptions import NumericalError
from repro.solver import ConeProgram, barrier
from repro.solver.backends import solve_compiled
from repro.taskgraph import Workload
from repro.taskgraph.generators import (
    chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)

from barrier_reference import barrier_reference, first_rung_center, relative
from program_rows import le, minimize


def kernel_setup(compiled):
    """The phase-II workspace of ``compiled`` and a strictly feasible start
    (the first-rung center of a barrier solve), with ``compiled``."""
    solver = barrier.BarrierSolver()
    center = first_rung_center(compiled)
    workspace = barrier._StructuredWorkspace(
        solver._layout(compiled).phase_two,
        compiled.h,
        barrier._kernel_stats(),
    )
    return solver, workspace, compiled.c, center, compiled


def duo_workload() -> Workload:
    workload = Workload(chain_configuration(stages=2).platform, name="duo")
    workload.add_application("video", chain_configuration(stages=2))
    workload.add_application("audio", chain_configuration(stages=2, period=20.0))
    return workload


@pytest.fixture
def chain():
    """A one-block program: the direct solve."""
    compiled = SocpFormulation(chain_configuration(stages=3)).build().compile()
    setup = kernel_setup(compiled)
    assert setup[1].direct
    return setup


@pytest.fixture
def duo():
    """A two-application program: the arrow solve with coupling rows."""
    compiled = WorkloadSocpFormulation(duo_workload()).build().compile()
    setup = kernel_setup(compiled)
    assert not setup[1].direct and setup[1].m
    return setup


def reference_system(compiled, workspace, z, grad_objective, lower_bound=None):
    """The Newton system from the full-width reference barrier of
    ``compiled`` (coupling rows included), plus the trace-scaled Tikhonov
    diagonal; ``lower_bound`` selects phase I."""
    reference = barrier_reference(compiled, z, lower_bound)
    assert reference is not None
    _, grad, hess = reference
    scale = barrier._OPTIONS.regularization * (1.0 + np.trace(hess) / workspace.k)
    return grad + grad_objective, hess + scale * np.eye(workspace.k)


class TestOneEvaluationPerTrialPoint:
    def test_newton_run_evaluates_each_trial_once(self, chain, duo, monkeypatch):
        """The layout's rows (every barrier row, coupling rows included) are
        evaluated only inside a line-search trial, at most once per trial
        (exactly once on a feasible trial), never twice at the same point
        and never inside a direction."""
        events = []
        rows_at = barrier._PhaseLayout.rows_at

        def counting_rows_at(self, z):
            events.append(("eval", id(self)))
            return rows_at(self, z)

        monkeypatch.setattr(barrier._PhaseLayout, "rows_at", counting_rows_at)
        for solver, workspace, c, z, _ in (chain, duo):
            states, phi = workspace.evaluate(z)
            events.clear()
            trial_points = []
            workspace_evaluate = workspace.evaluate
            workspace_direction = workspace.direction

            def trial(point):
                trial_points.append(point.copy())
                events.append(("trial", len(trial_points)))
                return workspace_evaluate(point)

            def direction(*args):
                events.append(("direction", None))
                result = workspace_direction(*args)
                events.append(("direction-end", None))
                return result

            monkeypatch.setattr(workspace, "evaluate", trial)
            monkeypatch.setattr(workspace, "direction", direction)
            # The next rung of the schedule makes the run move.
            z_end, _, _, newton, converged = solver._newton_minimise(
                c, workspace, z, states, phi, 25.0
            )
            assert newton >= 3 and converged
            assert not np.array_equal(z_end, z)

            in_direction = False
            per_trial = {}
            trial_index = None
            for kind, value in events:
                if kind == "direction":
                    in_direction, trial_index = True, None
                elif kind == "direction-end":
                    in_direction = False
                elif kind == "trial":
                    trial_index = value
                    per_trial[value] = []
                else:
                    assert not in_direction, "a direction re-evaluated a slack"
                    assert trial_index is not None, "an evaluation outside a trial"
                    per_trial[trial_index].append(value)
            assert len(per_trial) == len(trial_points) >= newton
            for evaluated in per_trial.values():
                assert len(evaluated) <= 1
            assert sum(len(v) == 1 for v in per_trial.values()) >= newton
            for i, point in enumerate(trial_points):
                assert not any(np.array_equal(point, p) for p in trial_points[:i])
                assert not np.array_equal(point, z)

    def test_carried_state_direction_is_bitwise_fresh(self, chain, duo):
        """The direction from the carried states of the last accepted trial
        equals one from a fresh evaluation at the same point, bit for bit."""
        for solver, workspace, c, z, _ in (chain, duo):
            states, phi = workspace.evaluate(z)
            z_end, carried, carried_phi, _, _ = solver._newton_minimise(
                c, workspace, z, states, phi, 25.0
            )
            fresh, fresh_phi = workspace.evaluate(z_end)
            assert carried_phi == fresh_phi
            grad_objective = 25.0 * c
            g_carried, d_carried = workspace.direction(grad_objective, carried)
            g_fresh, d_fresh = workspace.direction(grad_objective, fresh)
            assert np.array_equal(g_carried, g_fresh)
            assert np.array_equal(d_carried, d_fresh)

    @pytest.mark.parametrize("shift", [1e6, math.nan], ids=["outside", "nan"])
    def test_infeasible_trial_carries_no_state(self, chain, duo, shift):
        """A point outside the domain, or with a NaN coordinate, is
        ``(None, +inf)``: no state of it can reach ``log`` or ``1/s``."""
        for _, workspace, c, z, _ in (chain, duo):
            point = z + shift * c
            assert workspace.evaluate(point) == (None, math.inf)


class TestCholeskyStep:
    def test_cholesky_matches_a_dense_solve(self, chain):
        _, workspace, c, z, compiled = chain
        states, _ = workspace.evaluate(z)
        grad, direction = workspace.direction(1e2 * c, states)
        grad_ref, hess = reference_system(compiled, workspace, z, 1e2 * c)
        assert relative(grad, grad_ref) <= 1e-12
        expected = -np.linalg.solve(hess, grad_ref)
        assert relative(direction, expected) <= 1e-10
        assert workspace.stats["lstsq_steps"] == 0
        assert workspace.stats["block_factorizations"] == 1

    def test_failed_cholesky_takes_the_counted_lstsq_step(self, chain, monkeypatch):
        """A Cholesky that reports ``info > 0`` hands the step to least
        squares on the same system, and the step is counted."""
        _, workspace, c, z, compiled = chain
        states, _ = workspace.evaluate(z)
        systems = []

        def failing_dposv(a, b, lower=0):
            systems.append((a.copy(), b.copy()))
            return a, b, 1

        monkeypatch.setattr(barrier, "_dposv", failing_dposv)
        grad, direction = workspace.direction(1e2 * c, states)
        assert len(systems) == 1
        hess, rhs = systems[0]
        assert np.array_equal(rhs, grad)
        _, hess_ref = reference_system(compiled, workspace, z, 1e2 * c)
        assert relative(hess, hess_ref) <= 1e-12
        expected = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        assert np.array_equal(direction, expected)
        assert workspace.stats["lstsq_steps"] == 1


class TestDenseStep:
    def test_failed_arrow_factorisation_solves_the_reference_system(
        self, duo, monkeypatch
    ):
        """When a block factorisation fails, the direction comes from one
        ``k×k`` system built from the assembled group blocks plus the
        coupling term: it equals a solve of the reference system, in phase
        II (coupling rows) and phase I (the ``t`` border)."""
        solver, workspace, c, z, compiled = duo
        k = compiled.num_variables
        needed = solver._required_relaxation(compiled, np.zeros(k))
        lower_bound = -max(1.0, abs(needed))
        phase_one = barrier._StructuredWorkspace(
            solver._layout(compiled).phase_one,
            compiled.h,
            barrier._kernel_stats(),
            lower_bound=lower_bound,
        )
        z_one = np.concatenate([np.zeros(k), [needed + max(1.0, 0.1 * abs(needed))]])
        assert phase_one.border == 1 and phase_one.m

        def singular(*args):
            raise np.linalg.LinAlgError("forced singular block factor")

        monkeypatch.setattr(barrier._StructuredWorkspace, "_arrow_direction", singular)
        phases = ((workspace, z, None), (phase_one, z_one, lower_bound))
        for space, point, bound in phases:
            grad_objective = np.random.default_rng(0).standard_normal(space.k)
            states, _ = space.evaluate(point)
            grad, direction = space.direction(grad_objective, states)
            grad_ref, hess_ref = reference_system(
                compiled, space, point, grad_objective, bound
            )
            assert relative(grad, grad_ref) <= 1e-12
            assert relative(direction, -np.linalg.solve(hess_ref, grad_ref)) <= 1e-10
            assert space.stats["fallback_iterations"] == 1
            assert space.stats["lstsq_steps"] == 0


class TestTermlessBlock:
    def test_block_reached_only_through_coupling_rows(self):
        """A block whose variable appears only in coupling rows has no
        barrier terms: no scatter-plan entry reaches its Hessian block, which
        is the regularization alone, and the solve matches the one-block
        solve of the same program."""
        program = ConeProgram("termless")
        x = program.add_variable("x", lower=0.0, upper=4.0)
        y = program.add_variable("y")
        le(program, {x: 1.0, y: 1.0}, 5.0, name="cap")
        le(program, {x: 1.0, y: -1.0}, 3.0, name="floor")
        minimize(program, {x: 1.0, y: -1.0})
        program.declare_blocks([[x], [y]])
        compiled = program.compile()
        structure = compiled.block_structure
        assert structure is not None and structure.coupling_rows.size == 2
        structured = solve_compiled(compiled, backend="barrier")
        layout = compiled.kernel_layout.phase_two
        assert layout.starts.tolist() == [0, 1] and layout.widths.tolist() == [1, 1]
        (termless,) = layout.offsets[1:].tolist()
        assert layout.hess_size == termless + 1
        assert termless not in layout.target.tolist()
        compiled_one = program.compile()
        compiled_one.block_structure = None
        one_block = solve_compiled(compiled_one, backend="barrier")
        assert structured.is_optimal and one_block.is_optimal
        assert structured.stats["structured"] is True
        assert structured.objective == pytest.approx(-5.0, abs=1e-6)
        assert structured.objective == pytest.approx(one_block.objective, abs=1e-8)


@pytest.mark.parametrize(
    "family",
    [
        lambda seed: heterogeneous_random_configuration(seed=seed),
        lambda seed: random_dag_configuration(6, 4, seed=seed),
    ],
    ids=["heterogeneous", "random-dag"],
)
def test_cholesky_never_rejects_a_barrier_hessian(family):
    """Over 40 seeds per family (phase I and phase II, feasible or not) the
    one-block direct solve never needs its least-squares step."""
    for seed in range(40):
        compiled = SocpFormulation(family(seed)).build().compile()
        solution = solve_compiled(compiled, backend="barrier")
        assert solution.stats["structured"] is False
        assert solution.stats["lstsq_steps"] == 0, seed


class TestNonFiniteSystem:
    def test_non_finite_system_raises_instead_of_least_squares(
        self, chain, monkeypatch
    ):
        """A non-finite Newton system whose Cholesky fails never reaches
        ``lstsq`` (whose SVD may not return on it): the step raises
        ``NumericalError``."""
        _, workspace, c, z, _ = chain
        (slacks, pq, f), _ = workspace.evaluate(z)
        slacks = slacks.copy()
        slacks[0] = 1e-300  # 1/s² overflows to inf
        monkeypatch.setattr(barrier, "_dposv", lambda a, b, lower=0: (a, b, 1))
        monkeypatch.setattr(
            barrier.np.linalg,
            "lstsq",
            lambda *args, **kwargs: pytest.fail("lstsq on a non-finite system"),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                workspace.direction(c, (slacks, pq, f))
        assert workspace.stats["lstsq_steps"] == 0
