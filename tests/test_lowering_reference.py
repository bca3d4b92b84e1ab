"""The one SDF→SRDF lowering against the paper's single-rate construction.

:func:`~repro.dataflow.construction.build_srdf_specification` phase-unrolls
every task graph.  At one copy per task that must be Section II-C exactly:
the same actors and queues as :mod:`srdf_reference` in the same order, the
same token terms ``δ(e)`` (value and type), the same instantiated SRDF, and
the single-rate capacity bound and period cycles.
"""

from __future__ import annotations

import math

import pytest

from repro.core.formulation import sufficient_capacity_bound
from repro.dataflow.construction import build_srdf_specification, instantiate_srdf
from repro.experiments import figure2, figure3
from repro.taskgraph.generators import (
    chain_configuration,
    fork_join_configuration,
    heterogeneous_random_configuration,
    multi_job_configuration,
    random_dag_configuration,
    ring_configuration,
)
from repro.taskgraph.task import effective_iteration_cycles
from repro.taskgraph.workload import random_workload
from srdf_reference import assert_lowers_like_the_reference, reference_srdf

#: family name → the configurations it lowers
FAMILIES = {
    **{f"figure2-{c}": (lambda c=c: [figure2.build_configuration(c)]) for c in (None, 1, 3)},
    **{f"figure3-{c}": (lambda c=c: [figure3.build_configuration(c)]) for c in (None, 2, 4)},
    **{f"chain-{n}": (lambda n=n: [chain_configuration(stages=n)]) for n in (2, 5, 8)},
    "fork-join": lambda: [fork_join_configuration()],
    "multi-job": lambda: [multi_job_configuration()],
    **{
        f"ring-{t}": (lambda t=t: [ring_configuration(stages=3, initial_tokens=t)])
        for t in (1, 3)
    },
    **{
        f"random-dag-{seed}": (
            lambda seed=seed: [
                random_dag_configuration(task_count=6, processor_count=4, seed=seed)
            ]
        )
        for seed in range(12)
    },
    **{
        f"heterogeneous-{seed}": (
            lambda seed=seed: [heterogeneous_random_configuration(seed=seed)]
        )
        for seed in range(12)
    },
    **{
        f"workload-{seed}": (
            lambda seed=seed: [
                application.configuration
                for application in random_workload(
                    application_count=32, granularity=0.05, seed=seed
                ).applications
            ]
        )
        for seed in range(3)
    },
}


def _graphs(name):
    """``(configuration, task graph)`` for every graph of the family."""
    return [
        (configuration, graph)
        for configuration in FAMILIES[name]()
        for graph in configuration.task_graphs
    ]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_specification_equals_the_reference(name):
    for _, graph in _graphs(name):
        assert_lowers_like_the_reference(graph, build_srdf_specification(graph))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_instantiation_equals_the_reference(name):
    for configuration, graph in _graphs(name):
        platform = configuration.platform
        budgets = {
            task.name: 0.75 * platform.processor(task.processor).replenishment_interval
            for task in graph.tasks
        }
        capacities = {buffer.name: buffer.initial_tokens + 2 for buffer in graph.buffers}
        srdf = instantiate_srdf(
            build_srdf_specification(graph), graph, platform, budgets, capacities
        )
        reference = reference_srdf(graph, platform, budgets, capacities)
        assert [(a.name, a.firing_duration) for a in srdf.actors] == [
            (a.name, a.firing_duration) for a in reference.actors
        ]
        assert [(q.name, q.source, q.target, q.tokens) for q in srdf.queues] == [
            (q.name, q.source, q.target, q.tokens) for q in reference.queues
        ]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_capacity_bound_and_period_cycles_are_single_rate(name):
    """``⌈Σ(̺(p) + µ)/µ⌉ + 1`` and one ``wcet`` per period, bit for bit."""
    for configuration, graph in _graphs(name):
        platform = configuration.platform
        total = 0.0
        for task in graph.tasks:
            processor = platform.processor(task.processor)
            total += processor.replenishment_interval + graph.period
            assert graph.period_cycles(task.name, processor) == effective_iteration_cycles(
                task, processor, 1
            )
        expected = math.ceil(total / graph.period) + 1.0
        bound = sufficient_capacity_bound(configuration, graph)
        assert bound == expected and type(bound) is float
