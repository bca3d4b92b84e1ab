"""Single-rate dataflow substrate (Section II-B and II-C of the paper).

Contents:

* :class:`~repro.dataflow.graph.SRDFGraph` — single-rate dataflow graphs.
* :mod:`~repro.dataflow.mcr` — maximum cycle ratio / minimum feasible period.
* :mod:`~repro.dataflow.schedule` — periodic admissible schedules.
* :mod:`~repro.dataflow.simulation` — self-timed (worst-case) execution.
* :mod:`~repro.dataflow.monotonicity` — temporal monotonicity checks.
* :mod:`~repro.dataflow.construction` — the two-actor-per-task construction
  that models budget schedulers (from the paper's reference [10]).
* :mod:`~repro.dataflow.sdf` — multi-rate SDF graphs and their expansion to
  SRDF (the "more dynamic applications" extension the paper names as future
  work).
"""

from repro.dataflow.graph import Actor, Queue, SRDFGraph
from repro.dataflow.construction import (
    ActorRole,
    ActorSpec,
    QueueKind,
    QueueSpec,
    SrdfSpecification,
    build_configuration_specifications,
    build_srdf_specification,
    finish_actor_name,
    instantiate_from_configuration,
    instantiate_srdf,
    start_actor_name,
)
from repro.dataflow.mcr import (
    CycleRatio,
    critical_cycle,
    critical_cycles,
    cycle_ratios,
    is_period_feasible,
    maximum_cycle_ratio,
    throughput,
)
from repro.dataflow.monotonicity import check_monotonicity, speedup_graph
from repro.dataflow.schedule import (
    PeriodicSchedule,
    compute_schedule,
    rate_optimal_schedule,
)
from repro.dataflow.sdf import SDFActor, SDFChannel, SDFGraph
from repro.dataflow.simulation import (
    SimulationTrace,
    measured_period,
    meets_period,
    simulate,
)

__all__ = [
    "Actor",
    "ActorRole",
    "ActorSpec",
    "CycleRatio",
    "PeriodicSchedule",
    "Queue",
    "QueueKind",
    "QueueSpec",
    "SDFActor",
    "SDFChannel",
    "SDFGraph",
    "SRDFGraph",
    "SimulationTrace",
    "SrdfSpecification",
    "build_configuration_specifications",
    "build_srdf_specification",
    "check_monotonicity",
    "compute_schedule",
    "critical_cycle",
    "critical_cycles",
    "cycle_ratios",
    "finish_actor_name",
    "instantiate_from_configuration",
    "instantiate_srdf",
    "is_period_feasible",
    "maximum_cycle_ratio",
    "measured_period",
    "meets_period",
    "rate_optimal_schedule",
    "simulate",
    "speedup_graph",
    "start_actor_name",
    "throughput",
]
