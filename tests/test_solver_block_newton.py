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
        program = formulation.build()
        compiled = program.compile()
        initial = compiled.vector_from_mapping(formulation.initial_point())
        structured, dense = solve_both(formulation, initial)
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
        program.add_hyperbolic(x, y, 4.0, name="xy")
        program.minimize(x + y)
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
        program.add_hyperbolic(x, y, 4.0, name="xy")
        program.minimize(x + y)
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
        program.add_less_equal(x + y, 5.0, name="coupling")
        program.maximize(y)
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
    def test_repeat_solve_reuses_cache(self):
        formulation = WorkloadSocpFormulation(make_workload(2, seed=3))
        compiled = formulation.build().compile()
        first = solve_compiled(compiled, backend="barrier")
        pieces = compiled.pieces_cache
        second = solve_compiled(compiled, backend="barrier")
        assert first.stats["pieces_cache_reused"] is False
        assert second.stats["pieces_cache_reused"] is True
        assert compiled.pieces_cache is pieces
        assert second.objective == pytest.approx(first.objective, abs=1e-9)


def both_plans(compiled):
    """The phase-II and phase-I plans the solver builds for ``compiled``,
    each with a strictly feasible point and its coordinate count.

    Phase II is evaluated at the first-rung center of a structured solve
    (well interior); phase I at the cold start ``z = 0`` with the relaxation
    ``t`` and lower bound :meth:`BarrierSolver._phase_one` would pick.
    """
    solver = barrier.BarrierSolver()
    pieces = solver._pieces(compiled)
    k = compiled.num_variables
    solution = solve_compiled(compiled, backend="barrier")
    z_two = solution.interior_point
    needed = solver._required_relaxation(compiled, np.zeros(k))
    plan_one = solver._phase_one_plan(pieces, compiled.h, -max(1.0, abs(needed)))
    z_one = np.concatenate([np.zeros(k), [needed + max(1.0, 0.1 * abs(needed))]])
    return [
        (solver._phase_two_plan(pieces, compiled.h), k, z_two),
        (plan_one, k + 1, z_one),
    ]


def workload_plans(seed):
    program = WorkloadSocpFormulation(random_workload(8, seed=seed)).build()
    return both_plans(program.compile())


def one_block_plans():
    """Phase II and phase I of a one-block program: ``t`` is folded into
    the block, so both plans take the direct solve."""
    program = SocpFormulation(random_dag_configuration(6, 4, seed=1)).build()
    return both_plans(program.compile())


def new_workspace(plan, k):
    return barrier._StructuredWorkspace(
        plan, k, barrier.BarrierOptions(), barrier._kernel_stats()
    )


def stacked_assembly(workspace, z):
    """The block-term gradient and Hessian as the group stacks build them
    from one evaluation, scattered back to full coordinates."""
    (group_states, _), phi = workspace.evaluate(z)
    assert phi < np.inf
    k = workspace.k
    grad, hess = np.zeros(k), np.zeros((k, k))
    for group, states in zip(workspace.groups, group_states):
        group.assemble(states)
        for j, index in enumerate(group.index):
            grad[index] += group.grad[j]
            hess[np.ix_(index, index)] += group.hess[j]
    return grad, hess


def per_term_assembly(terms, z, k):
    """Reference gradient and Hessian: each term evaluated on its own at
    ``z`` and scattered through its support."""
    grad, hess = np.zeros(k), np.zeros((k, k))
    for term in terms:
        state, smallest, _ = term.evaluate(z)
        assert smallest > 0.0
        g_i, h_i = term.grad_hess(state)
        support = np.arange(k) if term.support is None else term.support
        grad[support] += g_i
        hess[np.ix_(support, support)] += h_i
    return grad, hess


def relative(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def assert_stacked_matches_dense(plan, k, z):
    """Stacked assembly = per-term assembly to 1e-12, and the kernel's
    direction = a dense solve of the per-term reference system (coupling
    and regularization included) to 1e-10, both relative."""
    workspace = new_workspace(plan, k)
    block_terms = [term for terms in plan.block_terms for term in terms]
    grad, hess = stacked_assembly(workspace, z)
    grad_ref, hess_ref = per_term_assembly(block_terms, z, k)
    assert relative(grad, grad_ref) <= 1e-12
    assert relative(hess, hess_ref) <= 1e-12
    grad_objective = np.random.default_rng(0).standard_normal(k)
    g_s, d_s = workspace.direction(grad_objective, workspace.evaluate(z)[0])
    g_ref, h_ref = per_term_assembly(plan.terms, z, k)
    g_ref += grad_objective
    h_ref += workspace.options.regularization * (1.0 + np.trace(h_ref) / k) * np.eye(k)
    assert workspace.stats["lstsq_steps"] == 0
    assert workspace.stats["fallback_iterations"] == 0
    assert relative(g_s, g_ref) <= 1e-12
    assert relative(d_s, -np.linalg.solve(h_ref, g_ref)) <= 1e-10
    return workspace


def assert_relaxed_hyperbolic_terms(plan):
    """The plan has only linear and hyperbolic terms, and every hyperbolic
    one is phase I's relaxation: its ``P`` and ``Q`` carry ``½`` in the
    ``t`` column, the last of the term's coordinates."""
    kinds = {type(term) for term in plan.terms}
    assert kinds <= {barrier._LinearBlock, barrier._HyperbolicBlock}
    hyperbolic = [
        term for term in plan.terms if isinstance(term, barrier._HyperbolicBlock)
    ]
    assert hyperbolic
    for term in hyperbolic:
        assert np.all(term.P[:, -1] == 0.5) and np.all(term.Q[:, -1] == 0.5)


def ragged_groups(plan):
    """Width groups whose members differ in some term's row count."""
    by_key = {}
    for slc, terms in zip(plan.block_slices, plan.block_terms):
        key = (slc.stop - slc.start, barrier._term_signature(terms))
        by_key.setdefault(key, []).append(tuple(term.count for term in terms))
    return [counts for counts in by_key.values() if len(set(counts)) > 1]


class TestStackedAssembly:
    """The Newton kernel builds every block's gradient and Hessian from
    padded per-group tensors; it must agree with the per-term reference
    assembly over the same plan."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_two_matches_dense(self, seed):
        plan, k, z = workload_plans(seed)[0]
        assert plan.border == 0
        assert_stacked_matches_dense(plan, k, z)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_one_matches_dense(self, seed):
        """Phase I carries the border, block 0's lower-bound row and the
        relaxed hyperbolic terms ``(p + t/2)(q + t/2) ≥ w``."""
        plan, k, z = workload_plans(seed)[1]
        assert plan.border == 1
        assert_relaxed_hyperbolic_terms(plan)
        assert_stacked_matches_dense(plan, k, z)

    def test_one_block_plans_match_dense(self):
        """A one-block program's phase II, and its phase I with ``t`` folded
        into the block, assemble one group of one and take the direct
        solve."""
        (two, k, z_two), (one, k_one, z_one) = one_block_plans()
        assert two.border == 0 and one.border == 0
        assert one.block_slices == [slice(0, k + 1)] and k_one == k + 1
        assert_relaxed_hyperbolic_terms(one)
        for plan, width, z in ((two, k, z_two), (one, k_one, z_one)):
            workspace = assert_stacked_matches_dense(plan, width, z)
            assert workspace.direct
            assert [group.size for group in workspace.groups] == [1]
            assert workspace.stats["block_factorizations"] == 1

    def test_stacks_are_views_into_the_group_rows(self):
        """Every stack's affine rows live in its group's one row tensor, and
        its row weights and gradient coefficients in the group's weighted
        rows and row-gradient buffers."""
        buffers = {
            "rows": ("G", "PQ"),
            "wrows": ("wG", "wPQ"),
            "wgrad": ("g", "gPQ"),
        }
        for plan, k, _ in workload_plans(0):
            for group in new_workspace(plan, k).groups:
                for stack in group.stacks:
                    for buffer, names in buffers.items():
                        views = [
                            getattr(stack, name)
                            for name in names
                            if hasattr(stack, name)
                        ]
                        assert len(views) == 1
                        assert np.shares_memory(views[0], getattr(group, buffer))

    def test_group_with_different_row_counts(self):
        """Block 0's extra phase-I row makes its group ragged: the padding
        rows must contribute exact zeros."""
        plan, k, z = workload_plans(0)[1]
        assert ragged_groups(plan)
        assert_stacked_matches_dense(plan, k, z)

    def test_width_zero_phase_one_block(self):
        program = ConeProgram("pinned-block")
        x = program.add_variable("x", lower=2.0, upper=2.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        program.add_less_equal(x + y, 5.0, name="coupling")
        program.maximize(y)
        program.declare_blocks([[x], [y]])
        for plan, k, z in both_plans(program.compile()):
            workspace = assert_stacked_matches_dense(plan, k, z)
            if plan.border:
                assert any(group.width == 0 for group in workspace.groups)

    def test_newton_step_makes_no_per_term_calls(self, monkeypatch):
        """One structured evaluation and Newton step run through the group
        stacks only: no term's ``evaluate`` or ``grad_hess`` runs."""
        plans = workload_plans(1)
        calls = []
        for cls in (barrier._LinearBlock, barrier._HyperbolicBlock):
            for method in ("evaluate", "grad_hess"):
                original = getattr(cls, method)

                def counted(self, x, original=original):
                    calls.append(type(self).__name__)
                    return original(self, x)

                monkeypatch.setattr(cls, method, counted)
        for plan, k, z in plans:
            workspace = new_workspace(plan, k)
            workspace.direction(np.ones(k), workspace.evaluate(z)[0])
            assert workspace.stats["fallback_iterations"] == 0
            assert workspace.stats["block_factorizations"] == 8
        assert calls == []


def hand_terms(kind, count, width, rng, z, bound=0.5):
    """One ``kind`` term over ``count`` constraints and ``width`` block
    coordinates, strictly feasible at ``z`` (its support is set by the
    caller)."""
    if kind is barrier._LinearBlock:
        G = rng.standard_normal((count, width))
        return barrier._LinearBlock(G, G @ z + rng.uniform(0.5, 2.0, count))
    P = rng.standard_normal((count, width))
    Q = rng.standard_normal((count, width))
    return barrier._HyperbolicBlock(
        P, 1.0 - P @ z, Q, 2.0 - Q @ z, np.full(count, bound)
    )


def hand_group(kind, counts, width, seed=0):
    """A ``_BlockGroup`` of one stack kind, member ``j`` holding
    ``counts[j]`` constraints, with its terms and a feasible point."""
    rng = np.random.default_rng(seed)
    k = width * len(counts)
    z = rng.uniform(-0.5, 0.5, k)
    slices = [slice(j * width, (j + 1) * width) for j in range(len(counts))]
    terms = []
    for slc, count in zip(slices, counts):
        term = hand_terms(kind, count, width, rng, z[slc])
        term.support = np.arange(slc.start, slc.stop)
        terms.append(term)
    group = barrier._BlockGroup(slices, [[term] for term in terms], np.zeros((k, 1)), 0)
    return group, terms, z, k


class TestGramAssembly:
    """A group's gradient and Hessian stacks are one weighted Gram of its
    rows; each stack kind's weights must reproduce the per-term
    ``grad_hess`` reference."""

    @pytest.mark.parametrize("kind", [barrier._LinearBlock, barrier._HyperbolicBlock])
    @pytest.mark.parametrize("counts", [(3, 5, 1), (4,)], ids=["ragged", "one"])
    def test_weighted_gram_matches_grad_hess(self, kind, counts):
        group, terms, z, k = hand_group(kind, counts, width=4)
        if len(counts) > 1:
            assert len({term.count for term in terms}) > 1  # padding rows
        states, phi = group.evaluate(z)
        assert phi < np.inf
        group.assemble(states)
        grad, hess = np.zeros(k), np.zeros((k, k))
        for j, index in enumerate(group.index):
            grad[index] += group.grad[j]
            hess[np.ix_(index, index)] += group.hess[j]
        grad_ref, hess_ref = per_term_assembly(terms, z, k)
        assert relative(grad, grad_ref) <= 1e-12
        assert relative(hess, hess_ref) <= 1e-12


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


def relaxed_terms(seed, count=6, width=4):
    """Random hyperbolic data with ``(p + t/2)(q + t/2) > w`` at a random
    ``y = (z, t)``, and the phase-I relaxed block ``[P | ½]``/``[Q | ½]``."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((count, width))
    Q = rng.standard_normal((count, width))
    z = rng.uniform(-1.0, 1.0, width)
    t = rng.uniform(-0.5, 0.5)
    p0 = rng.uniform(0.5, 2.0, count) - P @ z
    q0 = rng.uniform(0.5, 2.0, count) - Q @ z
    shifted = (P @ z + p0 + t / 2.0) * (Q @ z + q0 + t / 2.0)
    w = rng.uniform(0.1, 0.9, count) * shifted
    half = np.full((count, 1), 0.5)
    term = barrier._HyperbolicBlock(np.hstack([P, half]), p0, np.hstack([Q, half]), q0, w)
    return (P, p0, Q, q0, w), term, np.append(z, t), rng


class TestPhaseOneRelaxation:
    """Phase I relaxes ``p·q ≥ w`` as ``(p + t/2)(q + t/2) ≥ w``.  Since
    ``(p + q + t)² − 4w − (p − q)² = 4·((p + t/2)(q + t/2) − w)``, its
    barrier is the rotated cone ``‖(2√w, p − q)‖ ≤ p + q + t``'s plus the
    constant ``log 4`` per term: same gradient, Hessian and domain."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_second_order_cone_barrier(self, seed):
        data, term, y, _ = relaxed_terms(seed)
        reference = soc_barrier(*data, y)
        assert reference is not None
        soc_value, soc_grad, soc_hess = reference
        state, smallest, value = term.evaluate(y)
        assert smallest > 0.0
        grad, hess = term.grad_hess(state)
        assert relative(grad, soc_grad) <= 1e-12
        assert relative(hess, soc_hess) <= 1e-12
        assert value - soc_value == pytest.approx(term.count * np.log(4.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_rejects_the_same_points(self, seed):
        """Random points on both sides of the cone, and points on the
        negative branch (``p + t/2 < 0`` and ``q + t/2 < 0`` with a product
        above ``w``), which both forms reject."""
        data, term, y, rng = relaxed_terms(seed)
        P, p0, Q, q0, w = data
        points = [y + rng.normal(0.0, 1.5, y.size) for _ in range(200)]
        z = y[:-1]
        for scale in (1.0, 3.0):
            # t so negative that both shifted sides are ≤ −scale·max|side|.
            sides = np.concatenate([P @ z + p0, Q @ z + q0])
            t = -2.0 * (np.abs(sides).max() + scale * (1.0 + np.sqrt(w.max())))
            points.append(np.append(z, t))
        rejected = 0
        for point in points:
            state, smallest, value = term.evaluate(point)
            soc = soc_barrier(*data, point)
            assert (state is None) == (soc is None), point
            assert (value == np.inf) == (soc is None)
            rejected += state is None
        assert 0 < rejected < len(points)


class TestNaturalFactorisationFailure:
    def test_indefinite_block_takes_the_dense_step(self):
        """No fault armed: the second block's hyperbolic term has a negative
        bound, which makes its Hessian indefinite; the coupling rows make
        the whole system positive definite again.  The arrow solve must
        raise, and the direction must come from the dense step on the same
        system."""
        rng = np.random.default_rng(4)
        width, k = 2, 4
        z = np.zeros(k)
        slices = [slice(0, width), slice(width, k)]
        block_terms = []
        for slc, bound in zip(slices, (0.5, -10.0)):
            G = np.vstack([np.eye(width), -np.eye(width)])
            linear = barrier._LinearBlock(G, np.full(2 * width, 20.0))
            hyperbolic = barrier._HyperbolicBlock(
                np.array([[1.0, 0.0]]), np.array([1.0]),
                np.array([[0.0, 1.0]]), np.array([1.0]), np.array([bound]),
            )
            for term in (linear, hyperbolic):
                term.support = np.arange(slc.start, slc.stop)
            block_terms.append([linear, hyperbolic])
        coupling = barrier._LinearBlock(np.eye(k), np.full(k, 0.1))
        plan = barrier._StructurePlan(slices, 0, block_terms, coupling)
        workspace = new_workspace(plan, k)
        (group,) = workspace.groups
        assert group.size == 2

        grad_objective = rng.standard_normal(k)
        grad, direction = workspace.direction(
            grad_objective, workspace.evaluate(z)[0]
        )
        eigenvalues = [np.linalg.eigvalsh(block).min() for block in group.hess]
        assert eigenvalues[0] > 0.0 > eigenvalues[1]
        assert workspace.stats["fallback_iterations"] == 1
        assert workspace.stats["lstsq_steps"] == 0

        g_ref, h_ref = per_term_assembly(plan.terms, z, k)
        g_ref += grad_objective
        reg = workspace.options.regularization * (1.0 + np.trace(h_ref) / k)
        h_ref += reg * np.eye(k)
        assert np.linalg.eigvalsh(h_ref).min() > 0.0
        assert relative(grad, g_ref) <= 1e-12
        assert relative(direction, -np.linalg.solve(h_ref, g_ref)) <= 1e-10
        with pytest.raises(np.linalg.LinAlgError):
            workspace._arrow_direction(grad, reg)
