"""Single-rate dataflow substrate (Section II-B and II-C of the paper).

Contents:

* :class:`~repro.dataflow.graph.SRDFGraph` — single-rate dataflow graphs.
* :mod:`~repro.dataflow.mcr` — maximum cycle ratio / minimum feasible period.
* :mod:`~repro.dataflow.schedule` — periodic admissible schedules.
* :mod:`~repro.dataflow.simulation` — self-timed (worst-case) execution.
* :mod:`~repro.dataflow.monotonicity` — temporal monotonicity checks.
* :mod:`~repro.dataflow.construction` — the two-actor-per-task construction
  that models budget schedulers (from the paper's reference [10]), and the
  one lowering of task graphs to SRDF: multi-rate and cyclo-static task
  graphs are unrolled into one firing copy per phase and repetition.
"""

from repro._lazy import lazy_exports

#: Every name loads its module on first use: verifying one mapping needs the
#: construction, MCR and simulation, never schedules or the monotonicity
#: checks.
_EXPORTS = {
    "ActorRole": "repro.dataflow.construction",
    "ActorSpec": "repro.dataflow.construction",
    "QueueKind": "repro.dataflow.construction",
    "QueueSpec": "repro.dataflow.construction",
    "SrdfSpecification": "repro.dataflow.construction",
    "build_srdf_specification": "repro.dataflow.construction",
    "finish_actor_name": "repro.dataflow.construction",
    "instantiate_from_configuration": "repro.dataflow.construction",
    "instantiate_srdf": "repro.dataflow.construction",
    "start_actor_name": "repro.dataflow.construction",
    "Actor": "repro.dataflow.graph",
    "Queue": "repro.dataflow.graph",
    "SRDFGraph": "repro.dataflow.graph",
    "CycleRatio": "repro.dataflow.mcr",
    "critical_cycle": "repro.dataflow.mcr",
    "critical_cycles": "repro.dataflow.mcr",
    "cycle_ratios": "repro.dataflow.mcr",
    "is_period_feasible": "repro.dataflow.mcr",
    "maximum_cycle_ratio": "repro.dataflow.mcr",
    "throughput": "repro.dataflow.mcr",
    "check_monotonicity": "repro.dataflow.monotonicity",
    "speedup_graph": "repro.dataflow.monotonicity",
    "PeriodicSchedule": "repro.dataflow.schedule",
    "compute_schedule": "repro.dataflow.schedule",
    "rate_optimal_schedule": "repro.dataflow.schedule",
    "SimulationTrace": "repro.dataflow.simulation",
    "measured_period": "repro.dataflow.simulation",
    "meets_period": "repro.dataflow.simulation",
    "simulate": "repro.dataflow.simulation",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
