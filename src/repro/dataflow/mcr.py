"""Maximum cycle ratio (MCR) analysis of SRDF graphs.

The smallest period for which a periodic admissible schedule exists equals the
*maximum cycle ratio*

    MCR(G) = max over directed cycles c of  Σ_{v ∈ c} ρ(v) / Σ_{e ∈ c} δ(e)

(Reiter 1968).  A cycle without initial tokens has an infinite ratio: the
graph deadlocks and no finite period exists.

:func:`maximum_cycle_ratio` runs Howard's policy iteration on every strongly
connected component (Cochet-Terrasson et al. 1998; Dasdan 2004).  It reads
the ratio off the final policy's cycle, so the result is exact up to the
rounding of one cycle sum, and :func:`critical_cycle` returns that cycle as
the witness.  ``method="enumerate"`` enumerates all simple cycles instead:
exponential in the worst case, it is the independent oracle of the tests.
:func:`is_period_feasible` decides one period with a Bellman–Ford test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro._graphs import strongly_connected_components
from repro.exceptions import AnalysisError
from repro.dataflow.graph import Queue, SRDFGraph

#: Relative rounding allowance of the policy-improvement comparisons and of
#: the per-edge slack in :func:`longest_path_potentials`.
_RELATIVE_SLACK = 1e-12


@dataclass(frozen=True)
class CycleRatio:
    """Ratio of one directed cycle: total firing duration over total tokens."""

    duration: float
    tokens: float
    queues: Tuple[Queue, ...]

    @classmethod
    def of(cls, graph: SRDFGraph, queues: Iterable[Queue]) -> "CycleRatio":
        queues = tuple(queues)
        duration = sum(graph.firing_duration(queue.source) for queue in queues)
        return cls(duration, sum(queue.tokens for queue in queues), queues)

    @property
    def ratio(self) -> float:
        if self.tokens == 0:
            return math.inf
        return self.duration / self.tokens


def cycle_ratios(graph: SRDFGraph) -> List[CycleRatio]:
    """Compute the ratio of every simple cycle (small graphs only)."""
    return [CycleRatio.of(graph, cycle) for cycle in graph.simple_cycles()]


def longest_path_potentials(
    graph: SRDFGraph, period: float
) -> Optional[Dict[str, float]]:
    """Bellman–Ford longest-path potentials, or ``None`` if a positive cycle exists.

    Constraint (1) of the paper, ``s(v_j) ≥ s(v_i) + ρ(v_i) − δ(e_ij)·period``,
    is a system of difference constraints; it is feasible iff the graph with
    edge weights ``ρ(v_i) − δ(e_ij)·period`` has no positive-weight cycle.
    When feasible, the returned potentials are valid periodic start times
    ``s(v)`` for the given period (shifted so that the smallest is 0).

    An edge relaxes only when it gains more than the rounding error of its
    weight, ``1e-12·(ρ(v_i) + δ(e_ij)·period)``: a cycle that is exactly
    tight at ``period`` is feasible, one infeasible by more is not.
    """
    edges = []
    for queue in graph.queues:
        duration = graph.firing_duration(queue.source)
        delay = queue.tokens * period
        slack = _RELATIVE_SLACK * (duration + delay)
        edges.append((queue.source, queue.target, duration - delay, slack))
    # Longest-path Bellman-Ford from a virtual source connected to all nodes
    # with weight 0 (equivalently: initialise all potentials to 0).
    potential = dict.fromkeys(graph.actor_names, 0.0)
    for _ in range(len(potential) + 1):
        changed = False
        for source, target, weight, slack in edges:
            candidate = potential[source] + weight
            if candidate > potential[target] + slack:
                potential[target] = candidate
                changed = True
        if not changed:
            shift = min(potential.values(), default=0.0)
            return {node: value - shift for node, value in potential.items()}
    return None


def is_period_feasible(graph: SRDFGraph, period: float) -> bool:
    """True when a periodic admissible schedule with the given period exists."""
    if period <= 0.0:
        return False
    return longest_path_potentials(graph, period) is not None


def maximum_cycle_ratio(graph: SRDFGraph, method: str = "howard") -> float:
    """Return the maximum cycle ratio (minimum feasible period) of the graph.

    Returns ``0.0`` for acyclic graphs (any positive period is feasible) and
    ``math.inf`` when the graph deadlocks (a cycle without tokens).
    """
    if method not in ("howard", "enumerate"):
        raise AnalysisError(f"unknown MCR method {method!r}")
    if not graph.is_deadlock_free():
        return math.inf
    if method == "enumerate":
        return max((ratio.ratio for ratio in cycle_ratios(graph)), default=0.0)
    cycle = critical_cycle(graph)
    return 0.0 if cycle is None else cycle.ratio


def critical_cycle(graph: SRDFGraph) -> Optional[CycleRatio]:
    """A cycle of maximum ratio, the witness of :func:`maximum_cycle_ratio`.

    Returns ``None`` when the graph has no cycle and raises
    :class:`AnalysisError` when it deadlocks.
    """
    if not graph.is_deadlock_free():
        raise AnalysisError(
            f"graph {graph.name!r} deadlocks: a cycle without initial tokens exists"
        )
    # Howard runs on every strongly connected component that carries a queue.
    component_of = {}
    edges = [(queue.source, queue.target) for queue in graph.queues]
    for index, component in enumerate(strongly_connected_components(graph.actor_names, edges)):
        component_of.update(dict.fromkeys(component, index))
    inner: Dict[int, List[Queue]] = {}
    for queue in graph.queues:
        if component_of[queue.source] == component_of[queue.target]:
            inner.setdefault(component_of[queue.source], []).append(queue)
    cycles = [_howard(graph, queues) for queues in inner.values()]
    return max(cycles, key=lambda cycle: cycle.ratio, default=None)


def _howard(graph: SRDFGraph, queues: List[Queue]) -> CycleRatio:
    """Howard's policy iteration on the queues of one strongly connected component.

    A policy picks one output queue per actor, so every actor leads to one
    policy cycle.  Evaluation gives each actor the ratio ``η`` of that cycle
    and a value ``x(v) = ρ(v) − η·δ(e) + x(target(e))`` along its policy
    queue ``e``.  Improvement moves actors towards a larger ``η`` or, when no
    actor can, towards a larger value at equal ``η``.  When neither applies,
    the largest policy cycle is critical.
    """
    duration = {queue.source: graph.firing_duration(queue.source) for queue in queues}
    outgoing: Dict[str, List[Queue]] = {}
    for queue in queues:
        outgoing.setdefault(queue.source, []).append(queue)
    policy = {actor: min(out, key=lambda queue: queue.tokens) for actor, out in outgoing.items()}
    # Values are path sums of ρ − η·δ, so their rounding error is relative to
    # the component's total duration and token count.
    total_duration = sum(duration.values())
    total_tokens = sum(queue.tokens for queue in queues)
    # Every improvement raises (η, x) lexicographically, so no policy repeats;
    # the cap only guards against rounding defeating that argument.
    for _ in range(100 * len(queues) + 100):
        ratio: Dict[str, float] = {}
        value: Dict[str, float] = {}
        cycles: List[CycleRatio] = []
        for start in policy:
            walk: Dict[str, int] = {}  # actor -> position, in walk order
            actor = start
            while actor not in ratio and actor not in walk:
                walk[actor] = len(walk)
                actor = policy[actor].target
            if actor in walk:  # the walk closed a new policy cycle
                loop = (policy[member] for member in list(walk)[walk[actor]:])
                cycles.append(CycleRatio.of(graph, loop))
                ratio[actor], value[actor] = cycles[-1].ratio, 0.0
            for member in reversed(walk):
                if member not in ratio:
                    queue = policy[member]
                    eta = ratio[member] = ratio[queue.target]
                    value[member] = duration[member] - eta * queue.tokens + value[queue.target]

        improved = False
        for actor, out in outgoing.items():
            best = max(out, key=lambda queue: ratio[queue.target])
            if ratio[best.target] > ratio[actor] * (1.0 + _RELATIVE_SLACK):
                policy[actor], improved = best, True
        if improved:
            continue
        for actor, out in outgoing.items():
            eta, best = ratio[actor], value[actor]
            noise = _RELATIVE_SLACK * (total_duration + eta * total_tokens)
            for queue in out:
                candidate = duration[actor] - eta * queue.tokens + value[queue.target]
                if ratio[queue.target] == eta and candidate > best + noise:
                    best, policy[actor], improved = candidate, queue, True
        if not improved:
            return max(cycles, key=lambda cycle: cycle.ratio)
    raise AnalysisError(f"Howard policy iteration did not converge on graph {graph.name!r}")


def critical_cycles(graph: SRDFGraph, tolerance: float = 1e-6) -> List[CycleRatio]:
    """Cycles whose ratio is within ``tolerance`` (relative) of the MCR.

    Uses cycle enumeration, so it is intended for small graphs and reporting.
    """
    ratios = cycle_ratios(graph)
    best = max((r.ratio for r in ratios), default=0.0)
    return [r for r in ratios if r.ratio >= best * (1.0 - tolerance)]


def throughput(graph: SRDFGraph) -> float:
    """Maximum sustainable throughput in iterations per time unit (1 / MCR)."""
    mcr = maximum_cycle_ratio(graph)
    return math.inf if mcr == 0.0 else 1.0 / mcr
