"""Self-timed execution of SRDF graphs.

In a self-timed execution every actor fires as soon as each of its input
queues holds a token.  For (worst-case) constant firing durations the start
times satisfy the max-plus recursion

    start(v, k) = max over input queues e = (u → v) with k > δ(e) of
                  start(u, k − δ(e)) + ρ(u)

(and 0 when no such queue exists).  Because every zero-token cycle would
deadlock, the recursion is well-founded for deadlock-free graphs.

The simulator is used to *validate* mapped configurations end-to-end: after
the joint budget/buffer computation, the instantiated dataflow graph is
simulated and the measured steady-state period must not exceed the required
period.  By the temporal monotonicity of SRDF graphs this self-timed,
worst-case simulation upper-bounds the behaviour of the real budget-scheduled
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._graphs import topological_order
from repro.exceptions import SimulationError
from repro.dataflow.graph import SRDFGraph


@dataclass
class SimulationTrace:
    """Start times of the first ``iterations`` firings of every actor."""

    graph_name: str
    iterations: int
    start_times: Dict[str, List[float]] = field(default_factory=dict)

    def start_time(self, actor_name: str, firing: int) -> float:
        """Start time of the ``firing``-th firing (1-based)."""
        if firing < 1 or firing > self.iterations:
            raise SimulationError(
                f"firing {firing} outside the simulated range 1..{self.iterations}"
            )
        return self.start_times[actor_name][firing - 1]

    def actor_names(self) -> Tuple[str, ...]:
        return tuple(self.start_times.keys())

    def measured_period(self, actor_name: Optional[str] = None, settle_fraction: float = 0.5) -> float:
        """Average inter-firing distance over the tail of the simulation.

        The first ``settle_fraction`` of the firings are discarded as the
        transient phase; the period is estimated from the remaining firings of
        the slowest actor (or the requested actor).
        """
        if self.iterations < 2:
            raise SimulationError("need at least two firings to measure a period")
        names = [actor_name] if actor_name else list(self.start_times)
        worst = 0.0
        for name in names:
            times = self.start_times[name]
            first = min(int(len(times) * settle_fraction), len(times) - 2)
            span = times[-1] - times[first]
            count = (len(times) - 1) - first
            worst = max(worst, span / count)
        return worst

    def is_no_later_than(self, other: "SimulationTrace", tolerance: float = 1e-9) -> bool:
        """True when every firing in this trace starts no later than in ``other``.

        This is the comparison used to check temporal monotonicity.
        """
        if set(self.start_times) != set(other.start_times):
            return False
        iterations = min(self.iterations, other.iterations)
        for name, times in self.start_times.items():
            other_times = other.start_times[name]
            for k in range(iterations):
                if times[k] > other_times[k] + tolerance:
                    return False
        return True


def simulate(graph: SRDFGraph, iterations: int = 50) -> SimulationTrace:
    """Simulate the self-timed execution for a number of graph iterations.

    Raises
    ------
    SimulationError
        If the graph deadlocks (a cycle without initial tokens).
    """
    if iterations < 1:
        raise SimulationError("iterations must be at least 1")
    fractional = [q.name for q in graph.queues if not q.has_integral_tokens]
    if fractional:
        raise SimulationError(
            f"graph {graph.name!r} has fractional token counts on "
            f"{fractional}; the self-timed simulation needs integral tokens "
            f"(use the MCR/potential analyses instead)"
        )
    # Within one iteration index k, a firing can only depend on same-k firings
    # through zero-token queues; those form a DAG exactly when the graph is
    # deadlock-free, so processing actors in a topological order of the
    # zero-token subgraph makes the computation purely iterative.
    token_free = [(q.source, q.target) for q in graph.queues if q.tokens == 0]
    actor_order = topological_order(graph.actor_names, token_free)
    if actor_order is None:
        raise SimulationError(
            f"graph {graph.name!r} deadlocks: a cycle without initial tokens exists"
        )

    start: Dict[str, List[float]] = {name: [] for name in graph.actor_names}
    durations = {actor.name: actor.firing_duration for actor in graph.actors}
    inputs = {name: graph.input_queues(name) for name in graph.actor_names}

    for k in range(1, iterations + 1):
        for actor_name in actor_order:
            value = 0.0
            for queue in inputs[actor_name]:
                needed_firing = k - int(queue.tokens)
                if needed_firing >= 1:
                    producer_finish = (
                        start[queue.source][needed_firing - 1] + durations[queue.source]
                    )
                    value = max(value, producer_finish)
            start[actor_name].append(value)

    trace = SimulationTrace(graph_name=graph.name, iterations=iterations)
    for actor in graph.actors:
        trace.start_times[actor.name] = start[actor.name]
    return trace


def measured_period(graph: SRDFGraph, iterations: int = 100) -> float:
    """Steady-state period of the self-timed execution."""
    return simulate(graph, iterations=iterations).measured_period()


def meets_period(
    graph: SRDFGraph, required_period: float, iterations: int = 100, tolerance: float = 1e-6
) -> bool:
    """True when the self-timed execution sustains the required period.

    The check compares every simulated start time against the periodic
    admissible schedule with the required period: self-timed execution is the
    as-soon-as-possible execution, so ``start(v, k) ≤ s(v) + (k − 1)·µ`` must
    hold for all firings whenever such a schedule exists.  (A plain average of
    inter-firing distances over a finite horizon would systematically
    over-estimate the period on graphs with a long transient, making the
    validation flaky.)
    """
    from repro.dataflow.mcr import longest_path_potentials

    potentials = longest_path_potentials(graph, required_period)
    if potentials is None:
        return False
    return _sustains_schedule(graph, potentials, required_period, iterations, tolerance)


def _sustains_schedule(
    graph: SRDFGraph,
    potentials: Dict[str, float],
    required_period: float,
    iterations: int,
    tolerance: float = 1e-6,
) -> bool:
    """The simulation half of :func:`meets_period`, against periodic start
    times ``potentials`` the caller already computed at ``required_period``
    (:func:`~repro.dataflow.mcr.longest_path_potentials`)."""
    try:
        trace = simulate(graph, iterations=iterations)
    except SimulationError:
        return False
    slack = tolerance * max(1.0, required_period)
    for actor_name, times in trace.start_times.items():
        bound = potentials[actor_name]
        for k, start in enumerate(times):
            if start > bound + k * required_period + slack:
                return False
    return True
