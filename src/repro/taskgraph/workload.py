"""Multi-application workloads sharing one platform.

The budget schedulers of the paper's MPSoC exist because *several*
applications share the processors.  A :class:`Workload` models exactly that
scenario: N named applications — each a :class:`~repro.taskgraph.
configuration.Configuration` with its own task graphs, throughput
requirements (graph periods) and budget granularity — bound to **one shared**
:class:`~repro.taskgraph.platform.Platform`.  The joint allocation couples the
applications only through the shared processor and memory capacities
(Constraints (9) and (10) summed over every application); everything else is
per-application.

A :class:`MappedWorkload` is the corresponding output: one
:class:`~repro.taskgraph.configuration.MappedConfiguration` per application
(budgets rounded with that application's granularity, capacities rounded
conservatively) plus budget-split reporting over the shared processors.

Unlike :class:`Configuration`, task and buffer names only need to be unique
*within* an application: the formulation layer namespaces every variable per
application, so two instances of the same decoder can join one workload
unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import BindingError, InfeasibleModelError, ModelError
from repro.taskgraph.configuration import Configuration, MappedConfiguration
from repro.taskgraph.platform import Platform

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Application:
    """One named application of a workload.

    ``configuration`` is re-homed onto the workload's shared platform when
    the application is added, so ``configuration.platform`` is always the
    shared platform object.
    """

    name: str
    configuration: Configuration

    @property
    def granularity(self) -> float:
        return self.configuration.granularity

    def task_names(self) -> List[str]:
        return [task.name for _, task in self.configuration.all_tasks()]

    def buffer_names(self) -> List[str]:
        return [buffer.name for _, buffer in self.configuration.all_buffers()]


class Workload:
    """N named applications sharing one platform.

    Applications keep their own throughput constraints (the periods of their
    task graphs) and budget granularity; they are coupled exclusively through
    the shared processor and memory capacities.
    """

    def __init__(
        self,
        platform: Platform,
        applications: Optional[Mapping[str, Configuration]] = None,
        name: str = "workload",
    ) -> None:
        self.name = name
        self.platform = platform
        self._applications: Dict[str, Application] = {}
        for app_name, configuration in (applications or {}).items():
            self.add_application(app_name, configuration)

    # -- construction -----------------------------------------------------------
    def _build_application(self, name: str, configuration: Configuration) -> Application:
        """Validate a candidate application and re-home it onto the platform."""
        if not name:
            raise ModelError("application name must be non-empty")
        if "/" in name:
            # "/" separates the application namespace from entity names in
            # qualified variable names and flattened result keys; allowing it
            # would make "app/task" keys ambiguous.
            raise ModelError(
                f"application name {name!r} must not contain '/'"
            )
        for graph in configuration.task_graphs:
            for task in graph.tasks:
                if not self.platform.has_processor(task.processor):
                    raise BindingError(
                        f"application {name!r}: task {task.name!r} is bound to "
                        f"processor {task.processor!r}, which does not exist in "
                        f"the shared platform {self.platform.name!r}"
                    )
            for buffer in graph.buffers:
                if not self.platform.has_memory(buffer.memory):
                    raise BindingError(
                        f"application {name!r}: buffer {buffer.name!r} is placed "
                        f"in memory {buffer.memory!r}, which does not exist in "
                        f"the shared platform {self.platform.name!r}"
                    )
        if configuration.platform is self.platform:
            # Already homed on the shared platform: keep the object identity,
            # so session layers can recognise an unchanged application.
            rehomed = configuration
        else:
            rehomed = Configuration(
                platform=self.platform,
                task_graphs=configuration.task_graphs,
                granularity=configuration.granularity,
                name=configuration.name,
            )
        return Application(name=name, configuration=rehomed)

    def add_application(self, name: str, configuration: Configuration) -> Application:
        """Add one application, re-homing it onto the shared platform.

        Every processor and memory the application references must exist in
        the shared platform; the application's own platform object (if it
        differs) is discarded.
        """
        if name in self._applications:
            raise ModelError(f"duplicate application name {name!r}")
        application = self._build_application(name, configuration)
        self._applications[name] = application
        return application

    def remove_application(self, name: str) -> Application:
        """Remove (and return) one application — the run-time departure case."""
        try:
            return self._applications.pop(name)
        except KeyError:
            raise ModelError(
                f"no application named {name!r} in workload {self.name!r}"
            ) from None

    def replace_application(self, name: str, configuration: Configuration) -> Application:
        """Swap one application's configuration in place (keeps its position).

        The run-time reconfiguration case: the named application must already
        be part of the workload; its slot (and therefore the per-application
        ordering every reporting surface uses) is preserved.  Returns the
        application that was replaced.
        """
        try:
            previous = self._applications[name]
        except KeyError:
            raise ModelError(
                f"no application named {name!r} in workload {self.name!r}"
            ) from None
        self._applications[name] = self._build_application(name, configuration)
        return previous

    # -- lookup --------------------------------------------------------------------
    @property
    def applications(self) -> Tuple[Application, ...]:
        return tuple(self._applications.values())

    @property
    def application_names(self) -> List[str]:
        return list(self._applications)

    def application(self, name: str) -> Application:
        try:
            return self._applications[name]
        except KeyError:
            raise ModelError(
                f"no application named {name!r} in workload {self.name!r}"
            ) from None

    def __iter__(self) -> Iterator[Application]:
        return iter(self._applications.values())

    def __len__(self) -> int:
        return len(self._applications)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload({self.name!r}, applications={sorted(self._applications)}, "
            f"processors={len(self.platform)})"
        )

    # -- validation -----------------------------------------------------------------
    def validate(self) -> None:
        """Check structural consistency and joint-load lower bounds.

        Each application is validated on its own (structure, per-application
        load screens), then the *combined* load of all applications is checked
        against the shared processor and memory capacities — the necessary
        condition the single-configuration screens cannot see.
        """
        if not self._applications:
            raise ModelError(f"workload {self.name!r} contains no applications")
        for application in self._applications.values():
            application.configuration.validate()
        self._check_combined_processor_load()
        self._check_combined_memory_load()

    def _check_combined_processor_load(self) -> None:
        from repro.taskgraph.validate import processor_load_lower_bound

        configurations = [
            application.configuration for application in self._applications.values()
        ]
        for processor_name, processor in self.platform.processors.items():
            lower_bound = processor_load_lower_bound(
                processor, processor_name, configurations
            )
            if lower_bound > processor.replenishment_interval + 1e-9:
                raise InfeasibleModelError(
                    f"processor {processor_name!r} is overloaded across the "
                    f"workload: the applications' throughput requirements alone "
                    f"need at least {lower_bound:.6g} budget per replenishment "
                    f"interval of {processor.replenishment_interval:.6g}"
                )

    def _check_combined_memory_load(self) -> None:
        from repro.taskgraph.validate import memory_minimal_storage

        configurations = [
            application.configuration for application in self._applications.values()
        ]
        for memory_name, memory in self.platform.memories.items():
            if not memory.is_bounded:
                continue
            minimal = memory_minimal_storage(memory_name, configurations)
            if minimal > memory.capacity + 1e-9:
                raise InfeasibleModelError(
                    f"memory {memory_name!r} is too small for the workload: the "
                    f"smallest feasible buffer capacities already need "
                    f"{minimal:.6g} of {memory.capacity:.6g}"
                )


@dataclass
class MappedWorkload:
    """The output of a joint workload allocation.

    Attributes
    ----------
    workload:
        The input workload this mapping belongs to.
    applications:
        One :class:`MappedConfiguration` per application (keyed by the
        application name), each rounded with its own granularity.
    objective_value:
        Value of the weighted objective at the shared relaxed optimum.
    solver_info:
        Free-form diagnostics of the single shared solve.
    """

    workload: Workload
    applications: Dict[str, MappedConfiguration]
    objective_value: Optional[float] = None
    solver_info: Dict[str, object] = field(default_factory=dict)

    def application(self, name: str) -> MappedConfiguration:
        try:
            return self.applications[name]
        except KeyError:
            raise ModelError(f"no mapping recorded for application {name!r}") from None

    def flattened(self, attribute: str) -> Dict[str, float]:
        """One per-application mapping flattened to ``"<application>/<name>"`` keys.

        ``attribute`` names a per-application dictionary of
        :class:`MappedConfiguration` (``"budgets"``, ``"buffer_capacities"``,
        ``"relaxed_budgets"``, ``"relaxed_capacities"``).  The single
        definition of the flattened key scheme used by the trade-off points,
        the batch item results and any other layer that needs one flat view
        of a workload mapping (application names cannot contain ``/``, so the
        keys split back unambiguously on the first separator).
        """
        return {
            f"{app_name}/{name}": value
            for app_name, app_mapped in self.applications.items()
            for name, value in getattr(app_mapped, attribute).items()
        }

    # -- budget-split reporting ---------------------------------------------------
    def budget_split(self, processor_name: str) -> Dict[str, float]:
        """Per-application budget share on one shared processor."""
        self.workload.platform.processor(processor_name)
        split: Dict[str, float] = {}
        for app_name, mapped in self.applications.items():
            tasks = mapped.configuration.tasks_on_processor(processor_name)
            if tasks:
                split[app_name] = sum(mapped.budgets[task.name] for task in tasks)
        return split

    def total_budget(self, processor_name: Optional[str] = None) -> float:
        """Sum of budgets across every application, optionally per processor."""
        if processor_name is None:
            return sum(m.total_budget() for m in self.applications.values())
        return sum(self.budget_split(processor_name).values())

    def total_storage(self, memory_name: Optional[str] = None) -> float:
        return sum(m.total_storage(memory_name) for m in self.applications.values())

    def processor_utilisation(self, processor_name: str) -> float:
        processor = self.workload.platform.processor(processor_name)
        return self.total_budget(processor_name) / processor.replenishment_interval

    def budget_split_rows(self) -> List[Dict[str, object]]:
        """One table row per shared processor (used by the CLI and reports).

        Per-application columns are keyed ``budget[<application>]`` (the
        key style of :meth:`~repro.core.tradeoff.TradeoffCurve.as_table`),
        so application names can never collide with the ``processor`` /
        ``total`` / ``utilisation`` meta columns.
        """
        rows: List[Dict[str, object]] = []
        for processor_name, processor in self.workload.platform.processors.items():
            split = self.budget_split(processor_name)
            if not split:
                continue
            row: Dict[str, object] = {"processor": processor_name}
            for app_name in self.workload.application_names:
                row[f"budget[{app_name}]"] = split.get(app_name, 0.0)
            total = sum(split.values())
            row["total"] = total
            row["utilisation"] = round(total / processor.replenishment_interval, 4)
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, object]:
        return {
            "applications": {
                name: mapped.as_dict() for name, mapped in self.applications.items()
            },
            "budget_split": {
                processor_name: self.budget_split(processor_name)
                for processor_name in self.workload.platform.processors
            },
            "objective_value": self.objective_value,
            "solver_info": dict(self.solver_info),
        }


# -- (de)serialisation -----------------------------------------------------------
def workload_to_dict(workload: Workload) -> Dict[str, object]:
    from repro.taskgraph import serialization

    return {
        "format_version": FORMAT_VERSION,
        "name": workload.name,
        "platform": serialization.platform_to_dict(workload.platform),
        "applications": [
            {
                "name": application.name,
                "granularity": application.configuration.granularity,
                "configuration_name": application.configuration.name,
                "task_graphs": [
                    serialization.task_graph_to_dict(graph)
                    for graph in application.configuration.task_graphs
                ],
            }
            for application in workload.applications
        ],
    }


def workload_from_dict(data: Mapping[str, object]) -> Workload:
    from repro.taskgraph import serialization

    serialization.check_format_version(data, FORMAT_VERSION, FORMAT_VERSION, "workload")
    try:
        platform_data = data["platform"]
    except KeyError:
        raise ModelError("a workload document needs a 'platform' object") from None
    platform = serialization.platform_from_dict(platform_data)
    workload = Workload(platform=platform, name=str(data.get("name", "workload")))
    applications = serialization._list(data.get("applications", []), "applications")
    if not applications:
        raise ModelError("a workload document needs a non-empty 'applications' list")
    for app_data in applications:
        app_data = serialization._object(app_data, "workload application")
        app_name = str(serialization._required(app_data, "name", "workload application"))
        configuration = Configuration(
            platform=platform,
            task_graphs=[
                serialization.task_graph_from_dict(graph_data)
                for graph_data in serialization._list(
                    app_data.get("task_graphs", []), "task_graphs"
                )
            ],
            granularity=serialization._number(
                app_data.get("granularity", 1.0), "granularity"
            ),
            name=str(app_data.get("configuration_name", app_name)),
        )
        workload.add_application(app_name, configuration)
    return workload


def workload_to_json(workload: Workload, indent: int = 2) -> str:
    return json.dumps(workload_to_dict(workload), indent=indent, sort_keys=True)


def workload_from_json(text: str) -> Workload:
    from repro.taskgraph import serialization

    return workload_from_dict(serialization.parse_json(text, "workload"))


def save_workload(workload: Workload, path: Union[str, Path]) -> None:
    Path(path).write_text(workload_to_json(workload), encoding="utf-8")


def load_workload(path: Union[str, Path]) -> Workload:
    return workload_from_json(Path(path).read_text(encoding="utf-8"))


def mapped_workload_to_dict(mapped: MappedWorkload) -> Dict[str, object]:
    data = mapped.as_dict()
    data["workload"] = workload_to_dict(mapped.workload)
    data["format_version"] = FORMAT_VERSION
    return data


# -- generator helpers ------------------------------------------------------------
def workload_from_configurations(
    configurations: Iterable[Configuration],
    platform: Optional[Platform] = None,
    name: str = "workload",
) -> Workload:
    """Join existing configurations into one workload on a shared platform.

    Application names default to the configuration names; the shared platform
    defaults to the first configuration's platform.
    """
    configurations = list(configurations)
    if not configurations:
        raise ModelError("workload_from_configurations needs at least one configuration")
    shared = platform or configurations[0].platform
    workload = Workload(platform=shared, name=name)
    for configuration in configurations:
        workload.add_application(configuration.name, configuration)
    return workload


def random_workload(
    application_count: int = 2,
    task_count: int = 4,
    processor_count: int = 3,
    seed: int = 0,
    period: float = 10.0,
    replenishment_interval: float = 40.0,
    wcet_range: Optional[Tuple[float, float]] = None,
    max_capacity: Optional[int] = None,
    granularity: float = 1.0,
) -> Workload:
    """A seeded workload of random-DAG applications sharing one platform.

    Each application is an independent layered random DAG (see
    :func:`repro.taskgraph.generators.random_dag_configuration`) with its own
    derived seed; the default WCET range is scaled down by the application
    count so that the combined load stays feasible on the shared processors.
    """
    from repro.taskgraph.generators import random_dag_configuration

    if application_count < 1:
        raise ModelError("a workload needs at least one application")
    if wcet_range is None:
        wcet_range = (0.5 / application_count, 2.0 / application_count)
    rng = random.Random(f"workload:{seed}")
    shared: Optional[Platform] = None
    workload: Optional[Workload] = None
    for index in range(application_count):
        configuration = random_dag_configuration(
            task_count=task_count,
            processor_count=processor_count,
            seed=rng.randrange(2**31),
            period=period,
            replenishment_interval=replenishment_interval,
            wcet_range=wcet_range,
            max_capacity=max_capacity,
            granularity=granularity,
        )
        if workload is None:
            shared = configuration.platform
            workload = Workload(
                platform=shared,
                name=f"random-workload-{application_count}x{task_count}-{seed}",
            )
        workload.add_application(f"app{index}", configuration)
    return workload
