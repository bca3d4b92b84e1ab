"""Periodic admissible schedules (PAS) of SRDF graphs.

A schedule assigns a start time to every firing ``σ(v, k)``.  It is periodic
with period ``φ`` when ``σ(v, k) = s(v) + (k − 1)·φ`` and admissible when every
firing finds a token on each of its input queues.  Initial start times ``s``
determine an admissible periodic schedule iff Constraint (1) of the paper
holds for every queue:

    s(v_j) ≥ s(v_i) + ρ(v_i) − δ(e_ij)·φ
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import AnalysisError
from repro.dataflow.graph import SRDFGraph
from repro.dataflow.mcr import longest_path_potentials, maximum_cycle_ratio


@dataclass
class PeriodicSchedule:
    """A periodic schedule of an SRDF graph.

    Attributes
    ----------
    period:
        The period ``φ``; every actor fires exactly once per period.
    start_times:
        The initial start times ``s(v)`` of the first firing of each actor.
    """

    period: float
    start_times: Dict[str, float] = field(default_factory=dict)

    def start_time(self, actor_name: str, firing: int) -> float:
        """Start time of the ``firing``-th execution (1-based) of an actor."""
        if firing < 1:
            raise AnalysisError("firing indices are 1-based")
        try:
            offset = self.start_times[actor_name]
        except KeyError:
            raise AnalysisError(f"schedule has no start time for actor {actor_name!r}") from None
        return offset + (firing - 1) * self.period

    def finish_time(self, graph: SRDFGraph, actor_name: str, firing: int) -> float:
        return self.start_time(actor_name, firing) + graph.firing_duration(actor_name)

    def satisfies_constraints(self, graph: SRDFGraph, tolerance: float = 1e-7) -> bool:
        """Check Constraint (1) for every queue of the graph."""
        for queue in graph.queues:
            lhs = self.start_times.get(queue.target)
            rhs_base = self.start_times.get(queue.source)
            if lhs is None or rhs_base is None:
                return False
            rhs = (
                rhs_base
                + graph.firing_duration(queue.source)
                - queue.tokens * self.period
            )
            if lhs < rhs - tolerance:
                return False
        return True

    def makespan_of_first_iteration(self, graph: SRDFGraph) -> float:
        """Completion time of the latest first firing."""
        return max(
            self.start_times[actor.name] + actor.firing_duration for actor in graph.actors
        )


def compute_schedule(graph: SRDFGraph, period: float) -> Optional[PeriodicSchedule]:
    """Compute a PAS with the given period, or ``None`` when none exists.

    The start times returned are the component-wise smallest non-negative
    start times (as-soon-as-possible within the periodic regime).
    """
    if period <= 0.0:
        return None
    potentials = longest_path_potentials(graph, period)
    if potentials is None:
        return None
    return PeriodicSchedule(period=period, start_times=potentials)


def rate_optimal_schedule(graph: SRDFGraph) -> PeriodicSchedule:
    """Compute a PAS at the graph's minimum feasible period (its MCR).

    Raises
    ------
    AnalysisError
        If the graph deadlocks (some cycle carries no tokens).
    """
    mcr = maximum_cycle_ratio(graph)
    if math.isinf(mcr):
        raise AnalysisError(
            f"graph {graph.name!r} deadlocks: a cycle without initial tokens exists"
        )
    # The MCR itself may be marginally infeasible numerically; nudge upward.
    period = mcr * (1.0 + 1e-9) + 1e-12
    schedule = compute_schedule(graph, period)
    if schedule is None:
        raise AnalysisError(
            f"internal error: period {period} derived from the MCR is infeasible"
        )
    return schedule


def validate_schedule_against_period(
    graph: SRDFGraph, schedule: PeriodicSchedule, required_period: float, tolerance: float = 1e-7
) -> bool:
    """True when the schedule is admissible and at least as fast as required."""
    return (
        schedule.period <= required_period + tolerance
        and schedule.satisfies_constraints(graph, tolerance=tolerance)
    )
