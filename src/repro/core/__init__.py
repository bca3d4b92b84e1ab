"""Core contribution of the paper: simultaneous budget and buffer-size computation.

* :class:`~repro.core.formulation.SocpFormulation` — Algorithm 1 as a cone
  program, assembled from one :class:`~repro.core.formulation.FormulationBlock`
  per member: a configuration is the one member, a workload's members are its
  applications, joined by shared capacity rows
  (``WorkloadSocpFormulation`` names the same class).
* :class:`~repro.core.allocator.JointAllocator` / :func:`~repro.core.allocator.allocate`
  / :func:`~repro.core.allocator.allocate_workload` — solve, round each member
  conservatively, verify, and return a mapped configuration or workload.
* :class:`~repro.core.allocator.AllocationSession` — warm-started solves
  for families of allocations (trade-off sweeps, admission events), over a
  configuration or a workload.
* :mod:`~repro.core.admission` — run-time admission control: incremental
  session editing (:meth:`~repro.core.allocator.AllocationSession.add_application`
  / ``remove_application``), :class:`~repro.core.admission.AdmissionController`
  with structured admit/reject verdicts, and replayable
  :class:`~repro.core.admission.AdmissionTrace` event sequences.
* :class:`~repro.core.tradeoff.TradeoffExplorer` — budget/buffer trade-off sweeps.
* :class:`~repro.core.objective.ObjectiveWeights` — objective weighting; the named
  presets (:data:`~repro.core.objective.WEIGHT_PRESETS`) resolve through
  :func:`~repro.core.objective.resolve_weights`.
* :mod:`~repro.core.rounding` — conservative rounding rules.
* :mod:`~repro.core.validation` — independent verification of mappings.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Lazy (PEP 562) exports: importing one submodule (``repro.core.allocator``
#: for a single allocation) does not load the others — admission control and
#: the trade-off explorer load on first use.
_EXPORTS = {
    "AdmissionController": "repro.core.admission",
    "AdmissionDecision": "repro.core.admission",
    "AdmissionTrace": "repro.core.admission",
    "TraceEvent": "repro.core.admission",
    "TraceRecord": "repro.core.admission",
    "TraceResult": "repro.core.admission",
    "apply_trace_event": "repro.core.admission",
    "load_trace": "repro.core.admission",
    "random_trace": "repro.core.admission",
    "replay_trace": "repro.core.admission",
    "save_trace": "repro.core.admission",
    "trace_from_dict": "repro.core.admission",
    "trace_from_json": "repro.core.admission",
    "trace_to_dict": "repro.core.admission",
    "trace_to_json": "repro.core.admission",
    "AllocationSession": "repro.core.allocator",
    "AllocatorOptions": "repro.core.allocator",
    "JointAllocator": "repro.core.allocator",
    "allocate": "repro.core.allocator",
    "allocate_workload": "repro.core.allocator",
    "FormulationBlock": "repro.core.formulation",
    "FormulationVariables": "repro.core.formulation",
    "SocpFormulation": "repro.core.formulation",
    "WorkloadSocpFormulation": "repro.core.formulation",
    "ObjectiveWeights": "repro.core.objective",
    "WEIGHT_PRESETS": "repro.core.objective",
    "resolve_weights": "repro.core.objective",
    "round_budget": "repro.core.rounding",
    "round_budgets": "repro.core.rounding",
    "round_capacities": "repro.core.rounding",
    "round_capacity": "repro.core.rounding",
    "rounding_overhead": "repro.core.rounding",
    "DvfsPoint": "repro.core.tradeoff",
    "DvfsSweep": "repro.core.tradeoff",
    "TradeoffCurve": "repro.core.tradeoff",
    "TradeoffExplorer": "repro.core.tradeoff",
    "TradeoffPoint": "repro.core.tradeoff",
    "VerificationReport": "repro.core.validation",
    "verify_mapping": "repro.core.validation",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
