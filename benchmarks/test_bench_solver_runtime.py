"""Solver runtime (paper, Section V): "The run-time is milliseconds".

The paper solved its two experiments with CPLEX in milliseconds per instance.
These benchmarks time a single joint budget/buffer computation on exactly
those instances with the from-scratch barrier solver; the assertion only
requires sub-second runtimes (leaving two orders of magnitude of slack for
slow machines), while the benchmark report records the actual figure for
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core import AllocatorOptions, JointAllocator, ObjectiveWeights
from repro.experiments.figure2 import build_configuration as producer_consumer
from repro.experiments.figure3 import build_configuration as three_stage_chain

#: Timed runs per instance; the assertions bound their mean wall-clock.
ROUNDS = 5


def _allocator() -> JointAllocator:
    return JointAllocator(
        weights=ObjectiveWeights.prefer_budgets(),
        options=AllocatorOptions(verify=False, run_simulation=False),
    )


@pytest.mark.benchmark(group="solver-runtime")
def test_single_instance_runtime_producer_consumer(run_timed):
    allocator = _allocator()
    config = producer_consumer(max_capacity=5)
    mapped, wall = run_timed(
        lambda: allocator.allocate(config, capacity_limits={"bab": 5}), rounds=ROUNDS
    )
    assert mapped.budgets["wa"] == pytest.approx(18.0, abs=1.0)
    assert wall < 1.0


@pytest.mark.benchmark(group="solver-runtime")
def test_single_instance_runtime_three_stage_chain(run_timed):
    allocator = _allocator()
    config = three_stage_chain()
    limits = {"bab": 5, "bbc": 5}
    mapped, wall = run_timed(
        lambda: allocator.allocate(config, capacity_limits=limits), rounds=ROUNDS
    )
    assert sum(mapped.budgets.values()) > 0.0
    assert wall < 1.0


@pytest.mark.benchmark(group="solver-runtime")
def test_socp_solve_only_runtime(run_timed):
    """Time of the cone-program solve alone (excluding rounding/verification)."""
    from repro.core.formulation import SocpFormulation

    config = producer_consumer(max_capacity=5)

    def solve():
        formulation = SocpFormulation(config, weights=ObjectiveWeights.prefer_budgets())
        return formulation.solve(backend="barrier")

    solution, wall = run_timed(solve, rounds=ROUNDS)
    assert solution.is_optimal
    assert wall < 0.5
