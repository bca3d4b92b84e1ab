"""repro — simultaneous budget and buffer-size computation for throughput-constrained task graphs.

A from-scratch reproduction of Wiggers, Bekooij, Geilen and Basten,
*"Simultaneous Budget and Buffer Size Computation for Throughput-Constrained
Task Graphs"*, DATE 2010.

The library is organised in layers:

* :mod:`repro.taskgraph` — the application model (task graphs, FIFO buffers,
  processors, memories, configurations, multi-application workloads sharing
  one platform).
* :mod:`repro.dataflow` — the single-rate dataflow substrate (SRDF graphs,
  periodic admissible schedules, maximum cycle ratio, self-timed simulation,
  the two-actor-per-task construction for budget schedulers).
* :mod:`repro.scheduling` — budget schedulers (TDM) and their latency-rate
  characterisation.
* :mod:`repro.solver` — the convex optimisation substrate (modelling layer,
  log-barrier interior-point SOCP solver, LP and scipy backends).
* :mod:`repro.core` — the paper's contribution: the joint SOCP (Algorithm 1),
  the allocator with conservative rounding and verification, and trade-off
  exploration.
* :mod:`repro.baselines` — the classical two-phase flows and independent
  oracles used for comparison and validation.
* :mod:`repro.analysis` — throughput/feasibility/sensitivity analysis and
  report rendering.
* :mod:`repro.experiments` — drivers that regenerate the paper's figures.
* :mod:`repro.batch` — batch campaigns: declarative JSON campaign specs over
  the generator family, a parallel allocation engine with worker-process
  fan-out, a persistent content-addressed result cache, and campaign-level
  aggregation (feasibility rates, resource percentiles, allocations/sec).

Quickstart
----------

>>> from repro import ConfigurationBuilder, allocate
>>> config = (
...     ConfigurationBuilder(name="demo")
...     .processor("p1", replenishment_interval=40.0)
...     .processor("p2", replenishment_interval=40.0)
...     .memory("m1")
...     .task_graph("job", period=10.0)
...     .task("producer", wcet=1.0, processor="p1")
...     .task("consumer", wcet=1.0, processor="p2")
...     .buffer("stream", source="producer", target="consumer", memory="m1")
...     .build()
... )
>>> mapping = allocate(config)
>>> mapping.budget("producer") >= 4.0
True
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Lazy (PEP 562) exports: ``import repro`` loads nothing else, and each
#: name imports its home module on first access — ``repro-map allocate``
#: therefore never loads the batch engine, admission control or the
#: experiment drivers.
_EXPORTS = {
    # batch
    "BatchExecutor": "repro.batch",
    "CampaignItem": "repro.batch",
    "CampaignSpec": "repro.batch",
    "CampaignSummary": "repro.batch",
    "ExecutorConfig": "repro.batch",
    "ItemResult": "repro.batch",
    "ResultCache": "repro.batch",
    "aggregate_results": "repro.batch",
    "load_campaign": "repro.batch",
    "run_campaign": "repro.batch",
    # core
    "AdmissionController": "repro.core.admission",
    "AdmissionDecision": "repro.core.admission",
    "AdmissionTrace": "repro.core.admission",
    "random_trace": "repro.core.admission",
    "replay_trace": "repro.core.admission",
    "AllocatorOptions": "repro.core.allocator",
    "JointAllocator": "repro.core.allocator",
    "allocate": "repro.core.allocator",
    "allocate_workload": "repro.core.allocator",
    "SocpFormulation": "repro.core.formulation",
    "WorkloadSocpFormulation": "repro.core.formulation",
    "ObjectiveWeights": "repro.core.objective",
    "TradeoffCurve": "repro.core.tradeoff",
    "TradeoffExplorer": "repro.core.tradeoff",
    "TradeoffPoint": "repro.core.tradeoff",
    "VerificationReport": "repro.core.validation",
    "verify_mapping": "repro.core.validation",
    # exceptions
    "AllocationError": "repro.exceptions",
    "AnalysisError": "repro.exceptions",
    "BindingError": "repro.exceptions",
    "FormulationError": "repro.exceptions",
    "GraphStructureError": "repro.exceptions",
    "InfeasibleModelError": "repro.exceptions",
    "InfeasibleProblemError": "repro.exceptions",
    "ModelError": "repro.exceptions",
    "NumericalError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "SimulationError": "repro.exceptions",
    "SolverError": "repro.exceptions",
    "UnboundedProblemError": "repro.exceptions",
    # taskgraph
    "Buffer": "repro.taskgraph",
    "Configuration": "repro.taskgraph",
    "ConfigurationBuilder": "repro.taskgraph",
    "MappedConfiguration": "repro.taskgraph",
    "MappedWorkload": "repro.taskgraph",
    "Memory": "repro.taskgraph",
    "Platform": "repro.taskgraph",
    "Processor": "repro.taskgraph",
    "Task": "repro.taskgraph",
    "TaskGraph": "repro.taskgraph",
    "Workload": "repro.taskgraph",
    "homogeneous_platform": "repro.taskgraph",
    "load_workload": "repro.taskgraph",
    "random_workload": "repro.taskgraph",
    "save_workload": "repro.taskgraph",
}

__all__ = sorted(_EXPORTS) + ["__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
