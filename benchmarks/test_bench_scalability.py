"""Ablation A3: polynomial-complexity claim — runtime growth with problem size.

The paper argues that the SOCP formulation is solvable in polynomial time.
This benchmark measures the end-to-end allocation time on growing pipeline
and random-DAG workloads.  The assertion is deliberately loose (each instance
solves within tens of seconds and the solution verifies); the recorded
timings are the actual data for EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core import AllocatorOptions, JointAllocator, ObjectiveWeights
from repro.core.validation import verify_mapping
from repro.taskgraph.generators import chain_configuration, random_dag_configuration

CHAIN_SIZES = (4, 8, 16)
DAG_SIZES = ((8, 4), (16, 8))


def _allocator() -> JointAllocator:
    return JointAllocator(
        weights=ObjectiveWeights.prefer_budgets(),
        options=AllocatorOptions(verify=False, run_simulation=False),
    )


@pytest.mark.benchmark(group="scalability-chain")
@pytest.mark.parametrize("stages", CHAIN_SIZES)
def test_chain_scalability(benchmark, run_timed, stages):
    allocator = _allocator()
    config = chain_configuration(stages=stages, max_capacity=8)
    mapped, wall = run_timed(lambda: allocator.allocate(config))
    benchmark.extra_info["stages"] = stages
    benchmark.extra_info["tasks"] = stages
    benchmark.extra_info["total_budget_mcycles"] = round(sum(mapped.budgets.values()), 2)
    assert verify_mapping(mapped, run_simulation=False).is_valid
    assert wall < 30.0


@pytest.mark.benchmark(group="scalability-dag")
@pytest.mark.parametrize("tasks,processors", DAG_SIZES)
def test_random_dag_scalability(benchmark, run_timed, tasks, processors):
    allocator = _allocator()
    config = random_dag_configuration(task_count=tasks, processor_count=processors, seed=1)
    mapped, wall = run_timed(lambda: allocator.allocate(config))
    benchmark.extra_info["tasks"] = tasks
    benchmark.extra_info["processors"] = processors
    benchmark.extra_info["buffers"] = len(mapped.buffer_capacities)
    benchmark.extra_info["total_budget_mcycles"] = round(sum(mapped.budgets.values()), 2)
    assert verify_mapping(mapped, run_simulation=False).is_valid
    assert wall < 60.0
