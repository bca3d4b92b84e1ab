"""Solver runtime (paper, Section V): "The run-time is milliseconds".

The paper solved its two experiments with CPLEX in milliseconds per instance.
These benchmarks time a single joint budget/buffer computation on exactly
those instances with the from-scratch barrier solver.  The gate is the
solver's deterministic work, which no machine or neighbour load moves: at
most ``MAX_NEWTON`` Newton steps (phase I included) over at most
``MAX_RUNGS`` barrier rungs, each step a Cholesky solve of a system with a
dozen columns.  The benchmark report records the wall time for
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core import AllocatorOptions, JointAllocator, ObjectiveWeights
from repro.experiments.figure2 import build_configuration as producer_consumer
from repro.experiments.figure3 import build_configuration as three_stage_chain

#: Timed runs per instance; the report records their mean wall-clock.
ROUNDS = 5
#: Newton steps (phase I + phase II) and barrier rungs one solve may take.
MAX_NEWTON = 80
MAX_RUNGS = 8


def _assert_solver_work(stats, iterations, record, benchmark, wall):
    """The count gate on one solve; the wall time is only recorded."""
    newton = stats["newton_iterations"] + stats["phase1_newton_iterations"]
    assert newton <= MAX_NEWTON
    assert iterations <= MAX_RUNGS
    record(benchmark, "newton_iterations", newton)
    record(benchmark, "rungs", iterations)
    record(benchmark, "mean_wall_seconds", wall)


def _allocator() -> JointAllocator:
    return JointAllocator(
        weights=ObjectiveWeights.prefer_budgets(),
        options=AllocatorOptions(verify=False, run_simulation=False),
    )


@pytest.mark.benchmark(group="solver-runtime")
def test_single_instance_runtime_producer_consumer(run_timed, record_series, benchmark):
    allocator = _allocator()
    config = producer_consumer(max_capacity=5)
    mapped, wall = run_timed(
        lambda: allocator.allocate(config, capacity_limits={"bab": 5}), rounds=ROUNDS
    )
    assert mapped.budgets["wa"] == pytest.approx(18.0, abs=1.0)
    info = mapped.solver_info
    _assert_solver_work(
        info["solve_stats"], info["iterations"], record_series, benchmark, wall
    )


@pytest.mark.benchmark(group="solver-runtime")
def test_single_instance_runtime_three_stage_chain(run_timed, record_series, benchmark):
    allocator = _allocator()
    config = three_stage_chain()
    limits = {"bab": 5, "bbc": 5}
    mapped, wall = run_timed(
        lambda: allocator.allocate(config, capacity_limits=limits), rounds=ROUNDS
    )
    assert sum(mapped.budgets.values()) > 0.0
    info = mapped.solver_info
    _assert_solver_work(
        info["solve_stats"], info["iterations"], record_series, benchmark, wall
    )


@pytest.mark.benchmark(group="solver-runtime")
def test_socp_solve_only_runtime(run_timed, record_series, benchmark):
    """Time of the cone-program solve alone (excluding rounding/verification)."""
    from repro.core.formulation import SocpFormulation

    config = producer_consumer(max_capacity=5)

    def solve():
        formulation = SocpFormulation(config, weights=ObjectiveWeights.prefer_budgets())
        return formulation.solve(backend="barrier")

    solution, wall = run_timed(solve, rounds=ROUNDS)
    assert solution.is_optimal
    _assert_solver_work(
        solution.stats, solution.iterations, record_series, benchmark, wall
    )
