"""Application model: task graphs, FIFO buffers, platforms and configurations.

This package implements Section II-A of the paper: the configuration tuple
``C = (Q, P, M, µ, ̺, o, ς, g)`` and the task graphs
``T = (W, B, π, χ, ν, ζ, ι)`` it contains, plus builders, validation,
serialisation and synthetic workload generators.
"""

from repro._lazy import lazy_exports
from repro.taskgraph.buffer import Buffer
from repro.taskgraph.configuration import Configuration, MappedConfiguration
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.platform import (
    Memory,
    Platform,
    Processor,
    heterogeneous_platform,
    homogeneous_platform,
)
from repro.taskgraph.task import Task

#: The builder, workloads, generators and the remaining submodules load on
#: first use: allocating one configuration file needs none of them.
_EXPORTS = {
    "ConfigurationBuilder": "repro.taskgraph.builder",
    **{
        name: "repro.taskgraph.workload"
        for name in (
            "Application",
            "MappedWorkload",
            "Workload",
            "load_workload",
            "random_workload",
            "save_workload",
            "workload_from_configurations",
            "workload_from_dict",
            "workload_from_json",
            "workload_to_dict",
            "workload_to_json",
        )
    },
    **{
        name: f"repro.taskgraph.{name}"
        for name in ("builder", "generators", "serialization", "validate", "workload")
    },
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Buffer",
    "Configuration",
    "MappedConfiguration",
    "Memory",
    "Platform",
    "Processor",
    "Task",
    "TaskGraph",
    "heterogeneous_platform",
    "homogeneous_platform",
]
__all__ += sorted(_EXPORTS)
