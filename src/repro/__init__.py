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

from repro.batch import (
    BatchExecutor,
    CampaignItem,
    CampaignSpec,
    CampaignSummary,
    ExecutorConfig,
    ItemResult,
    ResultCache,
    aggregate_results,
    load_campaign,
    run_campaign,
)
from repro.core import (
    AdmissionController,
    AdmissionDecision,
    AdmissionTrace,
    AllocatorOptions,
    JointAllocator,
    ObjectiveWeights,
    SocpFormulation,
    TradeoffCurve,
    TradeoffExplorer,
    TradeoffPoint,
    VerificationReport,
    WorkloadSocpFormulation,
    allocate,
    allocate_workload,
    random_trace,
    replay_trace,
    verify_mapping,
)
from repro.exceptions import (
    AllocationError,
    AnalysisError,
    BindingError,
    FormulationError,
    GraphStructureError,
    InfeasibleModelError,
    InfeasibleProblemError,
    ModelError,
    NumericalError,
    ReproError,
    SimulationError,
    SolverError,
    UnboundedProblemError,
)
from repro.taskgraph import (
    Buffer,
    Configuration,
    ConfigurationBuilder,
    MappedConfiguration,
    MappedWorkload,
    Memory,
    Platform,
    Processor,
    Task,
    TaskGraph,
    Workload,
    homogeneous_platform,
    load_workload,
    random_workload,
    save_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionTrace",
    "AllocationError",
    "AllocatorOptions",
    "AnalysisError",
    "BatchExecutor",
    "BindingError",
    "Buffer",
    "CampaignItem",
    "CampaignSpec",
    "CampaignSummary",
    "Configuration",
    "ConfigurationBuilder",
    "ExecutorConfig",
    "ItemResult",
    "ResultCache",
    "FormulationError",
    "GraphStructureError",
    "InfeasibleModelError",
    "InfeasibleProblemError",
    "JointAllocator",
    "MappedConfiguration",
    "MappedWorkload",
    "Memory",
    "ModelError",
    "NumericalError",
    "ObjectiveWeights",
    "Platform",
    "Processor",
    "ReproError",
    "SimulationError",
    "SocpFormulation",
    "SolverError",
    "Task",
    "TaskGraph",
    "TradeoffCurve",
    "TradeoffExplorer",
    "TradeoffPoint",
    "UnboundedProblemError",
    "VerificationReport",
    "Workload",
    "WorkloadSocpFormulation",
    "aggregate_results",
    "allocate",
    "allocate_workload",
    "homogeneous_platform",
    "load_campaign",
    "load_workload",
    "random_trace",
    "random_workload",
    "replay_trace",
    "run_campaign",
    "save_workload",
    "verify_mapping",
    "__version__",
]
