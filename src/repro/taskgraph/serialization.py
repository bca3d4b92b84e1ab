"""Dictionary / JSON (de)serialisation of the application model.

The on-disk format is a plain nested dictionary so that configurations can be
stored next to experiment results, diffed, and re-loaded without the library.
Round-tripping is covered by property-based tests.

Schema versioning
-----------------

Version 1 is the pre-generalisation schema: single-phase tasks, unit token
rates, untyped unit-speed processors.  Version 2 adds the optional
``phases`` / ``cycles_by_type`` task fields, ``production_rates`` /
``consumption_rates`` buffer fields and ``proc_type`` / ``speed`` /
``dvfs_levels`` processor fields.  Writers emit the new keys *only when the
value differs from the default* and stamp ``format_version: 1`` whenever the
model is expressible in the old schema — so a legacy configuration
serialises byte-identically to the pre-refactor code (batch cache keys hash
this dictionary, and old campaign cache entries must still hit).  Readers
accept both versions; missing keys load as the defaults.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

from repro.exceptions import ModelError
from repro.taskgraph.buffer import Buffer
from repro.taskgraph.configuration import Configuration, MappedConfiguration
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.platform import Memory, Platform, Processor
from repro.taskgraph.task import Task

FORMAT_VERSION = 2
LEGACY_FORMAT_VERSION = 1


# -- to dict -----------------------------------------------------------------
def task_to_dict(task: Task) -> Dict[str, object]:
    data: Dict[str, object] = {
        "name": task.name,
        "wcet": task.wcet,
        "processor": task.processor,
        "budget_weight": task.budget_weight,
        "min_budget": task.min_budget,
        "max_budget": task.max_budget,
    }
    if task.phases is not None:
        data["phases"] = list(task.phases)
    if task.cycles_by_type is not None:
        data["cycles_by_type"] = {t: c for t, c in task.cycles_by_type}
    return data


def buffer_to_dict(buffer: Buffer) -> Dict[str, object]:
    data: Dict[str, object] = {
        "name": buffer.name,
        "source": buffer.source,
        "target": buffer.target,
        "memory": buffer.memory,
        "container_size": buffer.container_size,
        "initial_tokens": buffer.initial_tokens,
        "capacity_weight": buffer.capacity_weight,
        "min_capacity": buffer.min_capacity,
        "max_capacity": buffer.max_capacity,
    }
    if buffer.production_rates is not None:
        data["production_rates"] = list(buffer.production_rates)
    if buffer.consumption_rates is not None:
        data["consumption_rates"] = list(buffer.consumption_rates)
    return data


def task_graph_to_dict(graph: TaskGraph) -> Dict[str, object]:
    return {
        "name": graph.name,
        "period": graph.period,
        "tasks": [task_to_dict(task) for task in graph.tasks],
        "buffers": [buffer_to_dict(buffer) for buffer in graph.buffers],
    }


def _processor_to_dict(processor: Processor) -> Dict[str, object]:
    data: Dict[str, object] = {
        "name": processor.name,
        "replenishment_interval": processor.replenishment_interval,
        "scheduling_overhead": processor.scheduling_overhead,
    }
    if processor.proc_type != "generic":
        data["proc_type"] = processor.proc_type
    if processor.speed != 1.0:
        data["speed"] = processor.speed
    if processor.dvfs_levels is not None:
        data["dvfs_levels"] = list(processor.dvfs_levels)
    return data


def platform_to_dict(platform: Platform) -> Dict[str, object]:
    return {
        "name": platform.name,
        "processors": [
            _processor_to_dict(p) for p in platform.processors.values()
        ],
        "memories": [
            {"name": m.name, "capacity": m.capacity} for m in platform.memories.values()
        ],
    }


def _processor_is_extended(processor: Processor) -> bool:
    return (
        processor.proc_type != "generic"
        or processor.speed != 1.0
        or processor.dvfs_levels is not None
    )


def uses_extended_model(configuration: Configuration) -> bool:
    """Whether a configuration needs the version-2 schema to round-trip."""
    if any(
        _processor_is_extended(p)
        for p in configuration.platform.processors.values()
    ):
        return True
    for graph in configuration.task_graphs:
        if any(
            task.phases is not None or task.cycles_by_type is not None
            for task in graph.tasks
        ):
            return True
        if any(
            buffer.production_rates is not None
            or buffer.consumption_rates is not None
            for buffer in graph.buffers
        ):
            return True
    return False


def _format_version_for(configuration: Configuration) -> int:
    return FORMAT_VERSION if uses_extended_model(configuration) else LEGACY_FORMAT_VERSION


def configuration_to_dict(configuration: Configuration) -> Dict[str, object]:
    return {
        "format_version": _format_version_for(configuration),
        "name": configuration.name,
        "granularity": configuration.granularity,
        "platform": platform_to_dict(configuration.platform),
        "task_graphs": [task_graph_to_dict(graph) for graph in configuration.task_graphs],
    }


def mapped_configuration_to_dict(mapped: MappedConfiguration) -> Dict[str, object]:
    data = mapped.as_dict()
    data["configuration"] = configuration_to_dict(mapped.configuration)
    data["format_version"] = _format_version_for(mapped.configuration)
    return data


# -- from dict -------------------------------------------------------------------
def task_from_dict(data: Dict[str, object]) -> Task:
    phases = data.get("phases")
    cycles_by_type = data.get("cycles_by_type")
    return Task(
        name=_name(_required(data, "name", "task"), "task name"),
        wcet=_number(_required(data, "wcet", "task"), "wcet"),
        processor=_name(_required(data, "processor", "task"), "processor"),
        budget_weight=_number(data.get("budget_weight", 1.0), "budget_weight"),
        min_budget=_optional_number(data.get("min_budget"), "min_budget"),
        max_budget=_optional_number(data.get("max_budget"), "max_budget"),
        phases=(
            tuple(_number(p, "phases") for p in _list(phases, "phases"))
            if phases is not None
            else None
        ),
        cycles_by_type=(
            {
                str(t): _number(c, "cycles_by_type")
                for t, c in _object(cycles_by_type, "cycles_by_type").items()
            }
            if cycles_by_type is not None
            else None
        ),
    )


def buffer_from_dict(data: Dict[str, object]) -> Buffer:
    production_rates = data.get("production_rates")
    consumption_rates = data.get("consumption_rates")
    return Buffer(
        name=_name(_required(data, "name", "buffer"), "buffer name"),
        source=_name(_required(data, "source", "buffer"), "source"),
        target=_name(_required(data, "target", "buffer"), "target"),
        memory=_name(_required(data, "memory", "buffer"), "memory"),
        container_size=_number(data.get("container_size", 1.0), "container_size"),
        initial_tokens=_count(data.get("initial_tokens", 0), "initial_tokens"),
        capacity_weight=_number(data.get("capacity_weight", 1.0), "capacity_weight"),
        min_capacity=_optional_count(data.get("min_capacity"), "min_capacity"),
        max_capacity=_optional_count(data.get("max_capacity"), "max_capacity"),
        production_rates=(
            tuple(
                _count(r, "production_rates")
                for r in _list(production_rates, "production_rates")
            )
            if production_rates is not None
            else None
        ),
        consumption_rates=(
            tuple(
                _count(r, "consumption_rates")
                for r in _list(consumption_rates, "consumption_rates")
            )
            if consumption_rates is not None
            else None
        ),
    )


def task_graph_from_dict(data: Dict[str, object]) -> TaskGraph:
    data = _object(data, "task graph")
    graph = TaskGraph(
        name=_name(_required(data, "name", "task graph"), "task graph name"),
        period=_number(_required(data, "period", "task graph"), "period"),
    )
    for task_data in _list(data.get("tasks", []), "tasks"):
        graph.add_task(task_from_dict(_object(task_data, "task")))
    for buffer_data in _list(data.get("buffers", []), "buffers"):
        graph.add_buffer(buffer_from_dict(_object(buffer_data, "buffer")))
    return graph


def platform_from_dict(data: Dict[str, object]) -> Platform:
    data = _object(data, "platform")
    processors = []
    for p in _list(data.get("processors", []), "processors"):
        p = _object(p, "processor")
        dvfs_levels = p.get("dvfs_levels")
        processors.append(
            Processor(
                name=_name(_required(p, "name", "processor"), "processor name"),
                replenishment_interval=_number(
                    _required(p, "replenishment_interval", "processor"),
                    "replenishment_interval",
                ),
                scheduling_overhead=_number(
                    p.get("scheduling_overhead", 0.0), "scheduling_overhead"
                ),
                proc_type=_name(p.get("proc_type", "generic"), "proc_type"),
                speed=_number(p.get("speed", 1.0), "speed"),
                dvfs_levels=(
                    tuple(
                        _number(level, "dvfs_levels")
                        for level in _list(dvfs_levels, "dvfs_levels")
                    )
                    if dvfs_levels is not None
                    else None
                ),
            )
        )
    memories = [
        Memory(
            name=_name(_required(m, "name", "memory"), "memory name"),
            capacity=_optional_number(m.get("capacity"), "capacity"),
        )
        for m in (_object(m, "memory") for m in _list(data.get("memories", []), "memories"))
    ]
    return Platform(
        processors=processors,
        memories=memories,
        name=_name(data.get("name", "platform"), "platform name"),
    )


def check_format_version(
    data: Mapping[str, object], default: int, supported: int, document: str
) -> None:
    """Check that the document is an object and its ``format_version``
    (``default`` when absent).

    Only a non-bool integer in ``[1, supported]`` is a version; anything
    else is a :class:`ModelError` naming the field, never a raw
    ``ValueError``/``TypeError`` from ``int()``.
    """
    version = _object(data, document).get("format_version", default)
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise ModelError(
            f"{document} format_version must be an integer from 1 to "
            f"{supported}, got {version!r}"
        )
    if version > supported:
        raise ModelError(
            f"{document} format version {version} is newer than supported "
            f"version {supported}"
        )


def configuration_from_dict(data: Dict[str, object]) -> Configuration:
    check_format_version(data, LEGACY_FORMAT_VERSION, FORMAT_VERSION, "configuration")
    if "platform" not in data:
        raise ModelError("a configuration document needs a 'platform' object")
    platform = platform_from_dict(data["platform"])
    graphs = [
        task_graph_from_dict(g) for g in _list(data.get("task_graphs", []), "task_graphs")
    ]
    return Configuration(
        platform=platform,
        task_graphs=graphs,
        granularity=_number(data.get("granularity", 1.0), "granularity"),
        name=_name(data.get("name", "configuration"), "configuration name"),
    )


def _required(data: Mapping[str, object], field: str, entry: str) -> object:
    """``data[field]``; a missing field is a :class:`ModelError` naming it,
    never a raw ``KeyError``."""
    try:
        return data[field]
    except KeyError:
        raise ModelError(f"every {entry} needs a {field!r} field") from None


def _name(value: object, field: str) -> str:
    """``value`` as a name: only a JSON string is one.  Anything else is a
    :class:`ModelError` naming the field, never turned by ``str()`` into a
    name such as ``"None"``, ``"True"`` or ``"nan"``."""
    if not isinstance(value, str):
        raise ModelError(f"{field} must be a string, got {value!r}")
    return value


def _optional_number(value: object, field: str) -> object:
    return None if value is None else _number(value, field)


def _count(value: object, field: str) -> int:
    """``value`` as an integer count.

    Only a number is a count: a bool or a string is a :class:`ModelError`,
    and so is a fractional, NaN or infinite number — never truncated by
    ``int()`` into a different, silently accepted model.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{field} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if not value.is_integer():
        raise ModelError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _number(value: object, field: str) -> float:
    """``value`` as a float; a bool, a string or ``None`` is a :class:`ModelError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _list(value: object, field: str) -> Sequence[object]:
    """``value`` as a list: a string or a bare number is a :class:`ModelError`,
    never iterated character by character or rejected by a raw ``TypeError``."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{field} must be a list, got {value!r}")
    return value


def _object(value: object, field: str) -> Mapping[str, object]:
    """``value`` as a JSON object: anything else is a :class:`ModelError`,
    never read pairwise by ``dict()`` into a raw ``ValueError``."""
    if not isinstance(value, Mapping):
        raise ModelError(f"{field} must be an object, got {value!r}")
    return value


def _optional_count(value: object, field: str) -> object:
    return None if value is None else _count(value, field)


# -- JSON convenience ------------------------------------------------------------------
def configuration_to_json(configuration: Configuration, indent: int = 2) -> str:
    return json.dumps(configuration_to_dict(configuration), indent=indent, sort_keys=True)


def parse_json(text: str, document: str) -> object:
    """``text`` parsed as JSON; a syntax error is a :class:`ModelError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ModelError(f"{document} is not valid JSON: {error}") from None


def configuration_from_json(text: str) -> Configuration:
    return configuration_from_dict(parse_json(text, "configuration"))


def save_configuration(configuration: Configuration, path: Union[str, Path]) -> None:
    Path(path).write_text(configuration_to_json(configuration), encoding="utf-8")


def load_configuration(path: Union[str, Path]) -> Configuration:
    return configuration_from_json(Path(path).read_text(encoding="utf-8"))
