"""Tests for maximum-cycle-ratio analysis and PAS feasibility."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.construction import instantiate_from_configuration
from repro.dataflow.graph import Actor, Queue, SRDFGraph
from repro.dataflow.mcr import (
    critical_cycle,
    critical_cycles,
    cycle_ratios,
    is_period_feasible,
    longest_path_potentials,
    maximum_cycle_ratio,
    throughput,
)
from repro.taskgraph.generators import (
    csdf_chain_configuration,
    fork_join_configuration,
    heterogeneous_random_configuration,
    multi_job_configuration,
    random_dag_configuration,
    ring_configuration,
)


class TestCycleRatios:
    def test_two_actor_cycle(self, two_actor_cycle):
        ratios = cycle_ratios(two_actor_cycle)
        assert len(ratios) == 1
        assert ratios[0].ratio == pytest.approx(2.5)

    def test_self_loop(self, self_loop_actor):
        ratios = cycle_ratios(self_loop_actor)
        assert len(ratios) == 1
        assert ratios[0].ratio == pytest.approx(4.0)

    def test_deadlocked_cycle_has_infinite_ratio(self, deadlocked_srdf):
        ratios = cycle_ratios(deadlocked_srdf)
        assert any(math.isinf(r.ratio) for r in ratios)


class TestMaximumCycleRatio:
    def test_two_actor_cycle(self, two_actor_cycle):
        assert maximum_cycle_ratio(two_actor_cycle) == pytest.approx(2.5, rel=1e-6)

    def test_pipeline_with_feedback(self, pipeline_srdf):
        assert maximum_cycle_ratio(pipeline_srdf) == pytest.approx(2.0, rel=1e-6)

    def test_enumeration_agrees_with_howard(self, pipeline_srdf, two_actor_cycle):
        for graph in (pipeline_srdf, two_actor_cycle):
            exact = maximum_cycle_ratio(graph, method="enumerate")
            howard = maximum_cycle_ratio(graph, method="howard")
            assert howard == pytest.approx(exact, rel=1e-12)
            assert critical_cycle(graph).ratio == howard

    def test_acyclic_graph_has_zero_mcr(self):
        graph = SRDFGraph("dag")
        graph.add_actor(Actor("a", 5.0))
        graph.add_actor(Actor("b", 5.0))
        graph.add_queue(Queue("ab", "a", "b", tokens=0))
        assert maximum_cycle_ratio(graph) == 0.0
        assert throughput(graph) == math.inf

    def test_deadlock_gives_infinite_mcr(self, deadlocked_srdf):
        assert math.isinf(maximum_cycle_ratio(deadlocked_srdf))
        assert throughput(deadlocked_srdf) == 0.0

    def test_graph_without_queues(self):
        graph = SRDFGraph("isolated")
        graph.add_actor(Actor("a", 3.0))
        assert maximum_cycle_ratio(graph) == 0.0

    def test_unknown_method_rejected(self, two_actor_cycle):
        from repro.exceptions import AnalysisError

        with pytest.raises(AnalysisError):
            maximum_cycle_ratio(two_actor_cycle, method="lawler")

    def test_tiny_durations_report_positive_mcr(self):
        # Nanosecond-scale durations: the MCR of 2e-9 is exact, not a
        # tolerance-sized approximation or 0.0.
        graph = SRDFGraph("nano")
        graph.add_actor(Actor("a", 1e-9))
        graph.add_actor(Actor("b", 1e-9))
        graph.add_queue(Queue("ab", "a", "b", tokens=0))
        graph.add_queue(Queue("ba", "b", "a", tokens=1))
        exact = maximum_cycle_ratio(graph, method="enumerate")
        assert exact == pytest.approx(2e-9, rel=1e-9)
        assert maximum_cycle_ratio(graph) == pytest.approx(exact, rel=1e-12)
        assert throughput(graph) == pytest.approx(0.5e9, rel=1e-12)

    def test_tiny_cycle_next_to_large_acyclic_actor(self):
        # A mixed-scale graph: an actor outside every cycle must not dilute
        # the tiny cycle's MCR of 2e-9.
        graph = SRDFGraph("mixed")
        graph.add_actor(Actor("a", 1e-9))
        graph.add_actor(Actor("b", 1e-9))
        graph.add_actor(Actor("big", 10.0))
        graph.add_queue(Queue("ab", "a", "b", tokens=0))
        graph.add_queue(Queue("ba", "b", "a", tokens=1))
        graph.add_queue(Queue("abig", "a", "big", tokens=0))
        exact = maximum_cycle_ratio(graph, method="enumerate")
        assert exact == pytest.approx(2e-9, rel=1e-9)
        assert maximum_cycle_ratio(graph) == pytest.approx(exact, rel=1e-12)

    def test_sub_tolerance_cycle_next_to_large_acyclic_actor(self):
        # An MCR of 5e-10 next to a big acyclic actor that dominates the
        # duration sum is still exact.
        graph = SRDFGraph("sub-tolerance")
        graph.add_actor(Actor("a", 0.25e-9))
        graph.add_actor(Actor("b", 0.25e-9))
        graph.add_actor(Actor("big", 10.0))
        graph.add_queue(Queue("ab", "a", "b", tokens=0))
        graph.add_queue(Queue("ba", "b", "a", tokens=1))
        graph.add_queue(Queue("abig", "a", "big", tokens=0))
        assert maximum_cycle_ratio(graph, method="enumerate") == pytest.approx(
            5e-10, rel=1e-9
        )
        assert maximum_cycle_ratio(graph) == pytest.approx(5e-10, rel=1e-12)

    def test_tiny_duration_trivial_cycles_still_report_zero(self):
        # A token-carrying cycle whose actors all fire in zero time has MCR 0
        # regardless of the duration scale of the rest of the graph.
        graph = SRDFGraph("zero-cycle")
        graph.add_actor(Actor("a", 0.0))
        graph.add_actor(Actor("b", 0.0))
        graph.add_actor(Actor("c", 1e-9))
        graph.add_queue(Queue("ab", "a", "b", tokens=1))
        graph.add_queue(Queue("ba", "b", "a", tokens=1))
        graph.add_queue(Queue("ac", "a", "c", tokens=0))
        assert maximum_cycle_ratio(graph) == 0.0

    def test_multiple_cycles_take_the_maximum(self):
        graph = SRDFGraph("two-cycles")
        for name, duration in (("a", 1.0), ("b", 1.0), ("c", 10.0)):
            graph.add_actor(Actor(name, duration))
        graph.add_queue(Queue("ab", "a", "b", tokens=1))
        graph.add_queue(Queue("ba", "b", "a", tokens=1))  # ratio (1+1)/2 = 1
        graph.add_queue(Queue("cc", "c", "c", tokens=1))  # ratio 10
        assert maximum_cycle_ratio(graph) == pytest.approx(10.0, rel=1e-6)
        critical = critical_cycles(graph)
        assert len(critical) == 1
        assert critical[0].queues[0].name == "cc"


class TestPeriodFeasibility:
    def test_feasible_above_mcr_infeasible_below(self, pipeline_srdf):
        mcr = maximum_cycle_ratio(pipeline_srdf)
        assert is_period_feasible(pipeline_srdf, mcr * 1.01)
        assert not is_period_feasible(pipeline_srdf, mcr * 0.9)

    def test_non_positive_period_infeasible(self, pipeline_srdf):
        assert not is_period_feasible(pipeline_srdf, 0.0)
        assert not is_period_feasible(pipeline_srdf, -5.0)

    def test_potentials_satisfy_constraints(self, pipeline_srdf):
        period = 3.0
        potentials = longest_path_potentials(pipeline_srdf, period)
        assert potentials is not None
        for queue in pipeline_srdf.queues:
            lhs = potentials[queue.target]
            rhs = (
                potentials[queue.source]
                + pipeline_srdf.firing_duration(queue.source)
                - queue.tokens * period
            )
            assert lhs >= rhs - 1e-9

    def test_potentials_none_when_infeasible(self, pipeline_srdf):
        assert longest_path_potentials(pipeline_srdf, 0.5) is None

    def test_tiny_self_loop_is_infeasible_just_below_its_ratio(self):
        # An absolute relaxation slack of 1e-12 accepted this self-loop at
        # 9e-13 below its ratio of 4e-7; the slack is relative per edge.
        graph = SRDFGraph("tiny-loop")
        graph.add_actor(Actor("a", 4e-7))
        graph.add_queue(Queue("aa", "a", "a", tokens=1))
        assert maximum_cycle_ratio(graph) == 4e-7
        assert is_period_feasible(graph, 4e-7)
        assert not is_period_feasible(graph, 4e-7 - 9e-13)


@settings(max_examples=40, deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=0.1, max_value=20.0, allow_nan=False), min_size=2, max_size=6
    ),
    tokens=st.integers(min_value=1, max_value=4),
)
def test_ring_mcr_matches_closed_form(durations, tokens):
    """Property: a single token-carrying ring has MCR = Σ durations / tokens."""
    graph = SRDFGraph("ring")
    n = len(durations)
    for i, duration in enumerate(durations):
        graph.add_actor(Actor(f"a{i}", duration))
    for i in range(n):
        graph.add_queue(
            Queue(f"q{i}", f"a{i}", f"a{(i + 1) % n}", tokens=tokens if i == n - 1 else 0)
        )
    expected = sum(durations) / tokens
    assert maximum_cycle_ratio(graph) == pytest.approx(expected, rel=1e-6)
    assert maximum_cycle_ratio(graph, method="enumerate") == pytest.approx(expected, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    duration_a=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    duration_b=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    tokens_ab=st.integers(min_value=0, max_value=3),
    tokens_ba=st.integers(min_value=1, max_value=3),
    scale=st.floats(min_value=1.01, max_value=3.0, allow_nan=False),
)
def test_feasibility_is_monotone_in_the_period(duration_a, duration_b, tokens_ab, tokens_ba, scale):
    """Property: if a period is feasible, every larger period is feasible too."""
    graph = SRDFGraph("pair")
    graph.add_actor(Actor("a", duration_a))
    graph.add_actor(Actor("b", duration_b))
    graph.add_queue(Queue("ab", "a", "b", tokens=tokens_ab))
    graph.add_queue(Queue("ba", "b", "a", tokens=tokens_ba))
    mcr = maximum_cycle_ratio(graph)
    assert is_period_feasible(graph, mcr * scale)
    assert not is_period_feasible(graph, mcr / (scale * 1.05))


# -- differential test: Howard against cycle enumeration ---------------------------

_FAMILIES = (
    lambda rng, seed: random_dag_configuration(
        task_count=rng.randint(3, 6), processor_count=rng.randint(2, 4), seed=seed
    ),
    lambda rng, seed: heterogeneous_random_configuration(
        task_count=rng.randint(3, 6), seed=seed
    ),
    lambda rng, seed: csdf_chain_configuration(
        stages=rng.randint(2, 3), phases_per_task=rng.randint(1, 3)
    ),
    lambda rng, seed: ring_configuration(
        stages=rng.randint(2, 4), initial_tokens=rng.randint(1, 3)
    ),
    lambda rng, seed: fork_join_configuration(branches=rng.randint(2, 3)),
    lambda rng, seed: multi_job_configuration(job_count=2, stages_per_job=rng.randint(2, 3)),
)


def _generated_graphs(count):
    """SRDF graphs of every generator family under random budgets and capacities."""
    for seed in range(count):
        rng = random.Random(seed)
        configuration = _FAMILIES[seed % len(_FAMILIES)](rng, seed)
        budgets = {
            task.name: rng.uniform(0.1, 1.0)
            * configuration.platform.processor(task.processor).replenishment_interval
            for _, task in configuration.all_tasks()
        }
        capacities = {
            buffer.name: buffer.smallest_feasible_capacity + rng.randint(0, 3)
            for _, buffer in configuration.all_buffers()
        }
        graphs = instantiate_from_configuration(configuration, budgets, capacities)
        for name, graph in graphs.items():
            yield f"seed {seed} {configuration.name}/{name}", graph


def _random_graphs(count):
    """Random graphs with self-loops, parallel queues, zero durations,
    fractional tokens and, through token-free cycles, deadlocks."""
    for seed in range(count):
        rng = random.Random(seed)
        scale = 10.0 ** rng.uniform(-9, 3)
        size = rng.randint(1, 10)
        graph = SRDFGraph(f"random{seed}")
        for index in range(size):
            duration = 0.0 if rng.random() < 0.2 else rng.uniform(1e-3, 1.0) * scale
            graph.add_actor(Actor(f"a{index}", duration))
        for index in range(rng.randint(0, 3 * size)):
            draw = rng.random()
            if draw < 0.2:
                tokens = 0
            elif draw < 0.65:
                tokens = rng.randint(1, 4)
            else:
                tokens = round(rng.uniform(0.05, 3.0), 3)
            source, target = rng.randrange(size), rng.randrange(size)
            graph.add_queue(Queue(f"q{index}", f"a{source}", f"a{target}", tokens))
        yield f"seed {seed}", graph


def _assert_matches_enumeration(label, graph):
    howard = maximum_cycle_ratio(graph)
    exact = maximum_cycle_ratio(graph, method="enumerate")
    if math.isinf(exact):
        assert math.isinf(howard), label
        return
    assert howard == pytest.approx(exact, rel=1e-12, abs=0.0), label
    witness = critical_cycle(graph)
    if howard == 0.0:
        assert witness is None or witness.ratio == 0.0, label
        return
    assert witness.ratio == howard, label
    assert is_period_feasible(graph, howard * (1.0 + 1e-9)), label
    assert not is_period_feasible(graph, howard * (1.0 - 1e-9)), label


def test_howard_matches_enumeration_on_generated_graphs():
    graphs = list(_generated_graphs(120))
    assert len(graphs) >= 120
    for label, graph in graphs:
        _assert_matches_enumeration(label, graph)


def test_howard_matches_enumeration_on_random_graphs():
    for label, graph in _random_graphs(200):
        _assert_matches_enumeration(label, graph)


def test_critical_cycle_of_acyclic_and_deadlocked_graphs(deadlocked_srdf):
    from repro.exceptions import AnalysisError

    graph = SRDFGraph("dag")
    graph.add_actor(Actor("a", 1.0))
    graph.add_actor(Actor("b", 1.0))
    graph.add_queue(Queue("ab", "a", "b", tokens=0))
    assert critical_cycle(graph) is None
    with pytest.raises(AnalysisError):
        critical_cycle(deadlocked_srdf)
