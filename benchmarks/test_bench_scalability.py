"""Ablation A3: polynomial-complexity claim — runtime growth with problem size.

The paper argues that the SOCP formulation is solvable in polynomial time.
This benchmark measures the end-to-end allocation time on growing pipeline
and random-DAG workloads.  The gate is the solver's deterministic work, which
no machine or neighbour load moves: every instance verifies and solves in at
most ``MAX_RUNGS`` barrier rungs and a per-family budget of Newton steps
(phase I included).  The wall times are recorded for EXPERIMENTS.md, not
asserted.
"""

from __future__ import annotations

import pytest

from repro.core import AllocatorOptions, JointAllocator, ObjectiveWeights
from repro.core.validation import verify_mapping
from repro.taskgraph.generators import chain_configuration, random_dag_configuration

CHAIN_SIZES = (4, 8, 16)
DAG_SIZES = ((8, 4), (16, 8))
#: Newton steps (phase I + phase II) one solve may take, per family.  The
#: instances take at most 92 (chains) and 234 (random DAGs).
MAX_CHAIN_NEWTON = 120
MAX_DAG_NEWTON = 300
#: Barrier rungs one solve may take (every instance takes 7).
MAX_RUNGS = 8


def _allocator() -> JointAllocator:
    return JointAllocator(
        weights=ObjectiveWeights.prefer_budgets(),
        options=AllocatorOptions(verify=False, run_simulation=False),
    )


def _assert_solver_work(mapped, max_newton, benchmark, wall):
    """The count gate on one allocation; the wall time is only recorded."""
    stats = mapped.solver_info["solve_stats"]
    newton = stats["newton_iterations"] + stats["phase1_newton_iterations"]
    rungs = mapped.solver_info["iterations"]
    benchmark.extra_info["newton_iterations"] = newton
    benchmark.extra_info["rungs"] = rungs
    benchmark.extra_info["wall_seconds"] = wall
    assert newton <= max_newton
    assert rungs <= MAX_RUNGS


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
    _assert_solver_work(mapped, MAX_CHAIN_NEWTON, benchmark, wall)


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
    _assert_solver_work(mapped, MAX_DAG_NEWTON, benchmark, wall)
