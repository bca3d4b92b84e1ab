"""The formulation's array lowering against a one-row-per-constraint reference.

:class:`~repro.core.formulation.FormulationBlock` writes Constraints (6)–(10)
as rows straight from the SRDF queue table (``ConeProgram.add_rows`` and
``add_hyperbolic_rows``).  The reference below writes the same program one
row per constraint from ``{variable: coefficient}`` terms, with the token
count ``δ(e)`` spelled out from the queue fields.  Both go through the one
``ConeProgram.compile``, and every compiled array must be equal bit for
bit: ``G``, ``h``, ``c``, ``c0``, the hyperbolic rows, the inequality names,
the block structure and the substitutions.
"""

from __future__ import annotations

import numpy as np
import pytest

from program_rows import hyperbolic, le, minimize
from repro.core.formulation import SocpFormulation, WorkloadSocpFormulation
from repro.core.objective import ObjectiveWeights
from repro.solver import ConeProgram
from repro.taskgraph.generators import (
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    producer_consumer_configuration,
    random_dag_configuration,
    ring_configuration,
)
from repro.taskgraph.task import effective_cycles
from repro.taskgraph.workload import random_workload


def add_term(terms, variable, coefficient) -> None:
    """Add ``coefficient·variable`` to ``terms`` (``None`` is the pinned 0)."""
    if variable is not None:
        terms[variable] = terms.get(variable, 0.0) + coefficient


def reference_lowering(formulation) -> ConeProgram:
    """The formulation's program, one row per constraint."""
    built = formulation.build()
    program = ConeProgram("reference")
    var = {
        v.name: program.add_variable(v.name, v.lower, v.upper) for v in built.variables
    }

    def start(block, actor):
        handle = block.variables.start_times[actor]
        return None if handle is None else var[handle.name]

    groups = []
    for block in formulation.blocks:
        handles = [
            *block.variables.budgets.values(),
            *block.variables.reciprocals.values(),
            *block.variables.capacities.values(),
            *(v for v in block.variables.start_times.values() if v is not None),
        ]
        groups.append([var[handle.name] for handle in handles])
        configuration = block.configuration
        for graph_name, spec in block.specifications.items():
            graph = configuration.task_graph(graph_name)
            for queue in spec.queues:
                task = graph.task(queue.source_task)
                processor = configuration.platform.processor(task.processor)
                rho = processor.replenishment_interval
                terms = {}
                # s_j ≥ s_i + ̺ − β'  (6), written as  s_i − β' − s_j ≤ −̺
                add_term(terms, start(block, queue.source), 1.0)
                add_term(terms, start(block, queue.target), -1.0)
                if queue.in_queue_set_e1:
                    add_term(terms, var[block.variables.budgets[task.name].name], -1.0)
                    le(program, terms, -rho, name=f"e1[{block.qualify(queue.name)}]")
                    continue
                # s_j ≥ s_i + ̺·χ·λ − µ·δ(e)  (7), δ(e) = scale·γ' + offset
                if queue.fixed_tokens is not None:
                    capacity, scale, offset = None, 0.0, float(queue.fixed_tokens)
                else:
                    buffer = graph.buffer(queue.buffer)
                    capacity = var[block.variables.capacities[buffer.name].name]
                    scale, offset = queue.token_scale, float(queue.token_offset)
                chi = effective_cycles(task, processor, queue.source_phase)
                lam = var[block.variables.reciprocals[task.name].name]
                add_term(terms, lam, rho * chi)
                if scale != 0.0:
                    add_term(terms, capacity, -(scale * graph.period))
                le(program, terms, offset * graph.period, name=f"e2[{block.qualify(queue.name)}]")
    for block in formulation.blocks:
        for task_name, beta in block.variables.budgets.items():
            hyperbolic(
                program,
                {var[block.variables.reciprocals[task_name].name]: 1.0}, 0.0,
                {var[beta.name]: 1.0}, 0.0,
                1.0,
                name=f"recip[{block.qualify(task_name)}]",
            )
    platform = formulation.platform
    for name, processor in platform.processors.items():
        budgets, slack = [], processor.scheduling_overhead
        for block in formulation.blocks:
            tasks = block.configuration.tasks_on_processor(name)
            budgets += [var[block.variables.budgets[t.name].name] for t in tasks]
            slack += block.configuration.granularity * len(tasks)
        if budgets:
            # Σ β' + slack ≤ ̺  (9)
            le(
                program,
                {budget: 1.0 for budget in budgets},
                processor.replenishment_interval - slack,
                name=f"processor[{name}]",
            )
    for name, memory in platform.memories.items():
        if not memory.is_bounded:
            continue
        usage, charged = {}, 0.0
        for block in formulation.blocks:
            for b in block.configuration.buffers_in_memory(name):
                # (γ' + 1)·size: the rounding container is charged up front
                add_term(usage, var[block.variables.capacities[b.name].name], b.container_size)
                charged += b.container_size
        if usage:
            le(program, usage, memory.capacity - charged, name=f"memory[{name}]")
    terms = {}
    for block in formulation.blocks:
        for graph in block.configuration.task_graphs:
            for task in graph.tasks:
                coefficient = block.weights.budget_coefficient(task)
                if coefficient:
                    add_term(terms, var[block.variables.budgets[task.name].name], coefficient)
            for buffer in graph.buffers:
                coefficient = block.weights.capacity_coefficient(buffer)
                if coefficient:
                    add_term(terms, var[block.variables.capacities[buffer.name].name], coefficient)
    minimize(program, terms)
    program.declare_blocks(groups)
    return program


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_csr(a, b) -> bool:
    return (
        a.shape == b.shape
        and same_bits(a.data, b.data)
        and same_bits(a.indices, b.indices)
        and same_bits(a.indptr, b.indptr)
    )


def assert_same_compile(formulation) -> None:
    reference = reference_lowering(formulation).compile()
    compiled = formulation.build().compile()
    assert [v.name for v in compiled.variables] == [v.name for v in reference.variables]
    assert compiled.inequality_names == reference.inequality_names
    assert same_csr(compiled.G_sparse, reference.G_sparse)
    for field in ("h", "c"):
        assert same_bits(getattr(compiled, field), getattr(reference, field)), field
    assert same_bits(compiled.c0, reference.c0)
    hyp, ref = compiled.hyperbolic, reference.hyperbolic
    assert same_csr(hyp.P, ref.P) and same_csr(hyp.Q, ref.Q)
    for field in ("p0", "q0", "bound"):
        assert same_bits(getattr(hyp, field), getattr(ref, field)), field
    assert hyp.names == ref.names
    structure, ref_structure = compiled.block_structure, reference.block_structure
    assert (structure is None) == (ref_structure is None)
    if structure is not None:
        assert structure.ranges == ref_structure.ranges
        assert same_bits(structure.row_blocks, ref_structure.row_blocks)
        assert same_bits(structure.hyperbolic_blocks, ref_structure.hyperbolic_blocks)
    assert [v.name for v in compiled.substitutions] == [
        v.name for v in reference.substitutions
    ]
    for value, ref_value in zip(
        compiled.substitutions.values(), reference.substitutions.values()
    ):
        assert same_bits(value, ref_value)


CONFIGURATIONS = {
    "producer-consumer": lambda: producer_consumer_configuration(),
    "bounded-memory": lambda: producer_consumer_configuration(memory_capacity=16.0),
    "ring-tokens": lambda: ring_configuration(stages=3, initial_tokens=2),
    "csdf-2x2": lambda: csdf_chain_configuration(stages=2, phases_per_task=2),
    "csdf-3x3": lambda: csdf_chain_configuration(stages=3, phases_per_task=3),
    **{
        f"heterogeneous-{seed}": (lambda seed=seed: heterogeneous_random_configuration(seed=seed))
        for seed in range(4)
    },
    **{
        f"random-dag-{seed}": (
            lambda seed=seed: random_dag_configuration(task_count=6, processor_count=4, seed=seed)
        )
        for seed in range(4)
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_configuration_lowers_like_the_reference(name):
    assert_same_compile(SocpFormulation(CONFIGURATIONS[name]()))


def test_pinned_variables_substitute_like_the_reference():
    """A capacity limit and a budget limit on their lower bounds pin
    ``γ'``, ``β'`` and ``λ``, and their terms fold into the row constants."""
    formulation = SocpFormulation(
        producer_consumer_configuration(),
        capacity_limits={"bab": 1},
        budget_limits={"wa": 4.0},
    )
    compiled = formulation.build().compile()
    assert len(compiled.substitutions) == 3
    assert_same_compile(formulation)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workload_lowers_like_the_reference(seed):
    workload = random_workload(application_count=4, seed=seed)
    formulation = WorkloadSocpFormulation(
        workload, weights=ObjectiveWeights.prefer_budgets()
    )
    assert formulation.build().compile().block_structure.num_blocks == 4
    assert_same_compile(formulation)
