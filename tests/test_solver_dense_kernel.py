"""The dense Newton kernel: one evaluation per trial point, one Cholesky per step.

A single-application program runs on :class:`repro.solver.barrier._DenseWorkspace`.
Its Newton loop must evaluate every line-search trial point exactly once
(the accepted trial's term states feed the next direction), solve the
symmetric positive-definite Newton system with one LAPACK Cholesky, and take
a counted least-squares step only when that Cholesky fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import SocpFormulation
from repro.exceptions import NumericalError
from repro.solver import barrier
from repro.solver.backends import solve_compiled
from repro.taskgraph.generators import (
    chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)

TERM_CLASSES = (barrier._LinearBlock, barrier._HyperbolicBlock, barrier._ConeBlock)


def dense_setup(configuration):
    """The phase-II dense workspace of ``configuration``'s program and a
    strictly feasible start (the first-rung center of a barrier solve)."""
    compiled = SocpFormulation(configuration).build().compile()
    solver = barrier.BarrierSolver()
    reduced, _ = solver._eliminate_equalities(compiled)
    pieces = solver._reduced_pieces(compiled, reduced)
    plan = solver._phase_two_plan(pieces, reduced)
    k = reduced.dimension
    workspace = barrier._DenseWorkspace(
        plan, k, solver.options, barrier._kernel_stats()
    )
    solution = solve_compiled(compiled, backend="barrier")
    z = reduced.project(solution.interior_point)
    c = reduced.reduce_direction(compiled.c)
    return solver, workspace, c, z


@pytest.fixture
def chain():
    return dense_setup(chain_configuration(stages=3))


class TestOneEvaluationPerTrialPoint:
    def test_newton_run_evaluates_each_trial_once(self, chain, monkeypatch):
        """Term ``evaluate`` runs only inside a line-search trial, at most
        once per term and trial (all terms on a feasible trial), never twice
        at the same point and never inside a direction."""
        solver, workspace, c, z = chain
        states, phi = workspace.evaluate(z)
        events = []
        for cls in TERM_CLASSES:
            original = cls.evaluate

            def counted(self, x, original=original):
                events.append(("term", id(self)))
                return original(self, x)

            monkeypatch.setattr(cls, "evaluate", counted)
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

        terms = len(workspace.plan.terms)
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
                assert not in_direction, "a direction re-evaluated a term"
                assert trial_index is not None, "a term evaluated outside a trial"
                per_trial[trial_index].append(value)
        assert len(per_trial) == len(trial_points) >= newton
        for evaluated in per_trial.values():
            assert len(evaluated) == len(set(evaluated)) <= terms
        assert sum(len(v) == terms for v in per_trial.values()) >= newton
        for i, point in enumerate(trial_points):
            assert not any(np.array_equal(point, p) for p in trial_points[:i])
            assert not np.array_equal(point, z)

    def test_carried_state_direction_is_bitwise_fresh(self, chain):
        """The direction from the carried states of the last accepted trial
        equals one from a fresh evaluation at the same point, bit for bit."""
        solver, workspace, c, z = chain
        states, phi = workspace.evaluate(z)
        z_end, carried, carried_phi, _, _ = solver._newton_minimise(
            c, workspace, z, states, phi, 25.0
        )
        fresh, fresh_phi = workspace.evaluate(z_end)
        assert carried_phi == fresh_phi
        grad_objective = 25.0 * c
        g_carried, d_carried = workspace.direction(z_end, grad_objective, carried)
        g_fresh, d_fresh = workspace.direction(z_end, grad_objective, fresh)
        assert np.array_equal(g_carried, g_fresh)
        assert np.array_equal(d_carried, d_fresh)

    @pytest.mark.parametrize("shift", [1e6, math.nan], ids=["outside", "nan"])
    def test_infeasible_trial_carries_no_state(self, chain, shift):
        """A point outside the domain, or with a NaN coordinate, is
        ``(None, +inf)``: no state of it can reach ``log`` or ``1/s``."""
        _, workspace, c, z = chain
        point = z + shift * c
        assert workspace.evaluate(point) == (None, math.inf)


class TestCholeskyStep:
    def test_cholesky_matches_a_dense_solve(self, chain):
        _, workspace, c, z = chain
        states, _ = workspace.evaluate(z)
        grad, direction = workspace.direction(z, 1e2 * c, states)
        hess = regularized_hessian(workspace, states)
        expected = -np.linalg.solve(hess, grad)
        assert np.linalg.norm(direction - expected) <= 1e-10 * np.linalg.norm(
            expected
        )
        assert workspace.stats["lstsq_steps"] == 0

    def test_failed_cholesky_takes_the_counted_lstsq_step(self, chain, monkeypatch):
        """A Cholesky that reports ``info > 0`` hands the step to least
        squares on the same system, and the step is counted."""
        _, workspace, c, z = chain
        states, _ = workspace.evaluate(z)
        systems = []

        def failing_dposv(a, b, lower=0):
            systems.append((a.copy(), b.copy()))
            return a, b, 1

        monkeypatch.setattr(barrier, "_dposv", failing_dposv)
        grad, direction = workspace.direction(z, 1e2 * c, states)
        assert len(systems) == 1
        hess, rhs = systems[0]
        assert np.array_equal(rhs, grad)
        assert np.array_equal(hess, regularized_hessian(workspace, states))
        expected = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        assert np.array_equal(direction, expected)
        assert workspace.stats["lstsq_steps"] == 1


def regularized_hessian(workspace, states):
    """The dense Newton matrix rebuilt from the terms: per-term Hessians
    plus the trace-scaled Tikhonov diagonal."""
    k = workspace.k
    hess = np.zeros((k, k))
    for term, state in zip(workspace.plan.terms, states):
        assert term.support is None
        hess += term.grad_hess(state)[1]
    scale = workspace.options.regularization * (1.0 + np.trace(hess) / k)
    return hess + scale * np.eye(k)


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
    dense kernel never needs its least-squares step."""
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
        _, workspace, c, z = chain
        states, _ = workspace.evaluate(z)
        states[0] = states[0].copy()
        states[0][0] = 1e-300  # 1/s² overflows to inf
        monkeypatch.setattr(barrier, "_dposv", lambda a, b, lower=0: (a, b, 1))
        monkeypatch.setattr(
            barrier.np.linalg,
            "lstsq",
            lambda *args, **kwargs: pytest.fail("lstsq on a non-finite system"),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                workspace.direction(z, c, states)
        assert workspace.stats["lstsq_steps"] == 0
