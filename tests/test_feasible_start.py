"""The model-built start point: cold solves start strictly feasible.

``_BlockAssembly.initial_point`` builds its point from the model (budgets a
share of each processor's slack, ``λ`` strictly between ``1/β'`` and its
bound, capacities a share of each memory's slack, start times from
longest-path potentials), so the barrier solver skips phase I on almost
every feasible cold solve, a session's limited points included.  These
tests check the skip rate over every generator family, parity with a solve
that runs phase I from a zero start, and the fallback to phase I where a row
has no slack.
"""

from __future__ import annotations

import pytest

from repro.core.allocator import AllocatorOptions, JointAllocator
from repro.core.formulation import (
    SocpFormulation,
    WorkloadSocpFormulation,
    _slack_share,
)
from repro.core.rounding import round_budgets, round_capacities
from repro.exceptions import InfeasibleProblemError
from repro.experiments import figure2, figure3
from repro.solver.barrier import BarrierSolver
from repro.solver.result import SolverStatus
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)
from repro.taskgraph.workload import random_workload

#: Minimum share of feasible cold solves that skip phase I.
SKIP_RATE = 0.95


def _model(key: str):
    family, _, rest = key.partition("-")
    if family == "rdag":
        return random_dag_configuration(task_count=6, processor_count=4, seed=int(rest))
    if family == "het":
        return heterogeneous_random_configuration(seed=int(rest))
    if family == "csdf":
        stages, phases = rest.split("x")
        return csdf_chain_configuration(stages=int(stages), phases_per_task=int(phases))
    if family == "chain8":
        return chain_configuration(stages=8)
    if family in ("fig2", "fig3"):
        module = figure2 if family == "fig2" else figure3
        return module.build_configuration(None if rest == "free" else int(rest))
    if family == "workload":
        count, seed = rest.split("s")
        return random_workload(application_count=int(count), seed=int(seed))
    raise ValueError(key)


KEYS = (
    [f"rdag-{seed}" for seed in range(12)]
    + [f"het-{seed}" for seed in range(12)]
    + [f"csdf-{s}x{p}" for s in range(2, 6) for p in (2, 3)]
    + ["chain8"]
    + [f"fig2-{k}" for k in list(range(1, 11)) + ["free"]]
    + [f"fig3-{k}" for k in list(range(1, 11)) + ["free"]]
    + [f"workload-{count}s{seed}" for count in range(2, 9) for seed in (0, 1)]
)


def _formulation(key: str):
    model = _model(key)
    model.validate()
    if key.startswith("workload"):
        return WorkloadSocpFormulation(model)
    return SocpFormulation(model)


def _solve(key: str, cold_start: bool):
    """``(formulation, solution)``, from the model-built point or from zero."""
    try:
        formulation = _formulation(key)
    except InfeasibleProblemError:
        return None, None
    compiled = formulation.build().compile()
    start = None
    if not cold_start:
        start = compiled.vector_from_mapping(formulation.initial_point())
    return formulation, BarrierSolver().solve(compiled, initial_point=start)


def _rounded(formulation, solution):
    """Per block: the rounded budgets and capacities of a solution."""
    return [
        (
            round_budgets(block.extract_budgets(solution), block.configuration.granularity),
            round_capacities(block.extract_capacities(solution)),
        )
        for block in formulation.blocks
    ]


@pytest.fixture(scope="module")
def solves():
    return {key: _solve(key, cold_start=False) for key in KEYS}


def test_phase_one_is_skipped_on_feasible_cold_solves(solves):
    feasible = [
        key
        for key, (_, solution) in solves.items()
        if solution is not None and solution.is_optimal
    ]
    skipped = [key for key in feasible if solves[key][1].stats["phase1_skipped"]]
    assert len(feasible) >= 0.9 * len(KEYS)
    assert len(skipped) >= SKIP_RATE * len(feasible), sorted(set(feasible) - set(skipped))
    # Every family is covered, not only the many random ones.
    for family in ("rdag", "het", "csdf", "chain8", "fig2", "fig3", "workload"):
        assert any(key.startswith(family) for key in skipped), family


def test_skipped_start_is_strictly_feasible(solves):
    for key, (formulation, solution) in solves.items():
        if solution is None or not solution.stats.get("phase1_skipped"):
            continue
        compiled = formulation.program.compile()
        start = compiled.vector_from_mapping(formulation.initial_point())
        assert compiled.max_linear_violation(start) < 0.0, key
        assert compiled.min_cone_margin(start) > 0.0, key


@pytest.mark.parametrize("key", KEYS)
def test_same_allocation_as_a_solve_through_phase_one(key, solves):
    formulation, solution = solves[key]
    reference_formulation, reference = _solve(key, cold_start=True)
    if solution is None:
        assert reference is None
        return
    assert not reference.stats["phase1_skipped"]
    assert solution.status is reference.status
    if not reference.is_optimal:
        return
    assert solution.objective == pytest.approx(reference.objective, rel=1e-9, abs=0.0)
    assert _rounded(formulation, solution) == _rounded(reference_formulation, reference)


def test_tight_instance_falls_back_to_phase_one():
    # The residual program of an admission verdict: 70 % of every processor
    # row is taken after the point is built, so the budgets the point hands
    # out leave those rows without slack.  Phase I runs from the point and
    # still finds the optimum of the tightened program.
    formulation = _formulation("het-3")
    compiled = formulation.build().compile()
    for index, name in enumerate(compiled.inequality_names):
        if name.startswith("processor["):
            compiled.h[index] *= 0.3
    start = compiled.vector_from_mapping(formulation.initial_point())
    assert compiled.max_linear_violation(start) > 0.0
    solution = BarrierSolver().solve(compiled, initial_point=start)
    assert solution.status is SolverStatus.OPTIMAL
    assert not solution.stats["phase1_skipped"]
    assert solution.stats["phase1_newton_iterations"] > 0
    reference = BarrierSolver().solve(compiled)
    assert solution.objective == pytest.approx(reference.objective, rel=1e-9, abs=0.0)


def test_limited_session_point_skips_phase_one():
    # A session builds each point at its own limits, so a cold limited
    # point starts inside them and skips phase I.
    configuration = figure2.build_configuration(None)
    allocator = JointAllocator(
        options=AllocatorOptions(verify=False, run_simulation=False)
    )
    mapped = allocator.session(configuration).allocate(capacity_limits={"bab": 3})
    stats = mapped.solver_info["solve_stats"]
    assert stats["warm_started"] is False
    assert stats["phase1_skipped"] is True
    assert stats["phase1_newton_iterations"] == 0
    rebuilt = SocpFormulation(
        configuration, allocator.weights, capacity_limits={"bab": 3}
    ).solve()
    assert mapped.objective_value == pytest.approx(rebuilt.objective, rel=1e-9)


def test_slack_share_never_divides_by_an_empty_room():
    # A row whose variables are all pinned has no room to split.
    assert _slack_share(1.0, 0.0, 0.5) == _slack_share(0.0, 0.0, 0.5) == 0.5
    assert _slack_share(-1.0, 0.0, 0.5) == 0.0
    assert _slack_share(-1.0, 2.0, 0.5) == 0.0
    assert _slack_share(1.0, 2.0, 0.5) == 0.25
