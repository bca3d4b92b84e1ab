"""Declarative campaign specifications.

A *campaign* describes a family of allocation problems — parameter sweeps
over the synthetic generators of :mod:`repro.taskgraph.generators` and/or
explicit JSON configurations — that the batch engine solves as one unit of
work.  Campaigns are plain JSON documents so that large design-space
explorations can be versioned next to their results and re-run bit-for-bit.

The schema (``format_version`` 1)::

    {
      "name": "smoke",                  // campaign name (used in reports)
      "seed": 7,                        // master seed for derived instance seeds
      "backend": "auto",                // solver backend for every item
      "weights": "prefer-budgets",      // objective preset for every item
      "entries": [
        // a generator sweep: the cartesian product of the "sweep" axes,
        // merged over the fixed "params"
        {"generator": "chain", "params": {"wcet": 1.0},
         "sweep": {"stages": [2, 3, 4]}},

        // "count" draws that many instance seeds from the campaign seed
        // (only for generators with a "seed" parameter)
        {"generator": "random_dag",
         "params": {"task_count": 8, "processor_count": 8}, "count": 25},

        // an explicit configuration, optionally swept over a common
        // per-buffer capacity bound ("low:high" or a list)
        {"configuration_path": "configs/decoder.json", "capacity_sweep": "1:10"},

        // a multi-application workload (inline or by path), solved jointly
        // on its shared platform; capacity_sweep bounds every buffer of
        // every application
        {"workload_path": "workloads/set-top-box.json", "capacity_sweep": [2, 4, 8]},

        // an admission trace (inline or by path): an arrival/departure
        // event sequence replayed through the incremental session API,
        // reporting per-event admit/reject verdicts and the final state
        {"trace_path": "traces/evening.json"}
      ]
    }

Every entry expands deterministically: the same campaign document and seed
always produce the same ordered list of :class:`CampaignItem` objects, which
is what makes the result cache and the N-worker/1-worker equivalence
guarantees of :mod:`repro.batch.executor` possible.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ModelError
from repro.taskgraph import serialization
from repro.taskgraph.configuration import Configuration
from repro.taskgraph.workload import (
    Workload,
    load_workload,
    workload_from_dict,
    workload_to_dict,
)
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    fork_join_configuration,
    heterogeneous_random_configuration,
    multi_job_configuration,
    producer_consumer_configuration,
    random_dag_configuration,
    ring_configuration,
)

FORMAT_VERSION = 1

#: Generator registry: the names usable in a campaign ``"generator"`` field.
GENERATORS = {
    "producer_consumer": producer_consumer_configuration,
    "chain": chain_configuration,
    "fork_join": fork_join_configuration,
    "ring": ring_configuration,
    "random_dag": random_dag_configuration,
    "multi_job": multi_job_configuration,
    "csdf_chain": csdf_chain_configuration,
    "heterogeneous_random": heterogeneous_random_configuration,
}


@dataclass
class CampaignItem:
    """One allocation problem of an expanded campaign.

    Exactly one of: a single ``configuration`` (with optional flat
    ``capacity_limits``), a multi-application ``workload`` (with optional
    *per-application* ``workload_capacity_limits``), or an admission
    ``trace`` (an arrival/departure event sequence replayed through the
    incremental session API).
    """

    label: str
    configuration: Optional[Configuration] = None
    capacity_limits: Optional[Dict[str, int]] = None
    workload: Optional[Workload] = None
    workload_capacity_limits: Optional[Dict[str, Dict[str, int]]] = None
    trace: Optional[object] = None   #: an :class:`repro.core.admission.AdmissionTrace`

    def configuration_dict(self) -> Dict[str, object]:
        """The canonical dictionary form used for hashing and pickling."""
        if self.trace is not None:
            from repro.core.admission import trace_to_dict

            return trace_to_dict(self.trace)
        if self.workload is not None:
            return workload_to_dict(self.workload)
        return serialization.configuration_to_dict(self.configuration)

    def limits(self) -> Optional[Dict[str, object]]:
        """The capacity limits in whichever shape this item carries."""
        if self.trace is not None:
            return None
        if self.workload is not None:
            return self.workload_capacity_limits
        return self.capacity_limits


def parse_capacity_values(value: object) -> List[int]:
    """Parse capacity bounds: ``"low:high"``, ``"2,4,8"``, or a list of ints.

    The single parser behind both the CLI's ``--capacities`` option and the
    campaign ``capacity_sweep`` field, so the two surfaces accept the same
    syntax.  Raises :class:`ValueError` with a human-readable reason; callers
    wrap it in their surface's error type.
    """
    if isinstance(value, str):
        stripped = value.strip()
        if ":" in stripped:
            low_text, _, high_text = stripped.partition(":")
            try:
                low, high = int(low_text), int(high_text)
            except ValueError:
                raise ValueError(
                    "range bounds must be integers, as in '1:10'"
                ) from None
            if low > high:
                raise ValueError(f"low bound {low} exceeds high bound {high}")
            values = list(range(low, high + 1))
        else:
            parts = [part.strip() for part in stripped.split(",")]
            if not all(parts):
                raise ValueError("empty segment in comma-separated list")
            try:
                values = [int(part) for part in parts]
            except ValueError:
                raise ValueError(
                    "capacities must be integers, as in '2,4,8'"
                ) from None
    elif isinstance(value, Sequence):
        try:
            values = [int(v) for v in value]
        except (TypeError, ValueError):
            raise ValueError("entries must be integers") from None
    else:
        raise ValueError("expected a 'low:high' string, a comma list, or a list of integers")
    if not values:
        raise ValueError("must not be empty")
    if any(v < 1 for v in values):
        raise ValueError("capacities must be at least one container")
    return values


def _parse_capacity_sweep(value: object) -> List[int]:
    try:
        return parse_capacity_values(value)
    except ValueError as error:
        raise ModelError(f"malformed capacity_sweep {value!r}: {error}") from None


@dataclass
class CampaignEntry:
    """One entry of a campaign: a generator sweep or an explicit configuration."""

    generator: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    sweep: Dict[str, List[object]] = field(default_factory=dict)
    count: Optional[int] = None
    configuration: Optional[Dict[str, object]] = None
    configuration_path: Optional[str] = None
    workload: Optional[Dict[str, object]] = None
    workload_path: Optional[str] = None
    trace: Optional[Dict[str, object]] = None
    trace_path: Optional[str] = None
    capacity_sweep: Optional[List[int]] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignEntry":
        known = {
            "generator",
            "params",
            "sweep",
            "count",
            "configuration",
            "configuration_path",
            "workload",
            "workload_path",
            "trace",
            "trace_path",
            "capacity_sweep",
        }
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"unknown campaign entry fields: {sorted(unknown)}")
        sources = [
            key
            for key in (
                "generator",
                "configuration",
                "configuration_path",
                "workload",
                "workload_path",
                "trace",
                "trace_path",
            )
            if data.get(key) is not None
        ]
        if len(sources) != 1:
            raise ModelError(
                "each campaign entry needs exactly one of 'generator', "
                "'configuration', 'configuration_path', 'workload', "
                "'workload_path', 'trace' or 'trace_path'"
            )
        entry = cls(
            generator=data.get("generator"),
            params=dict(data.get("params", {})),
            sweep={name: list(values) for name, values in dict(data.get("sweep", {})).items()},
            count=None if data.get("count") is None else int(data["count"]),
            configuration=data.get("configuration"),
            configuration_path=data.get("configuration_path"),
            workload=data.get("workload"),
            workload_path=data.get("workload_path"),
            trace=data.get("trace"),
            trace_path=data.get("trace_path"),
            capacity_sweep=(
                None
                if data.get("capacity_sweep") is None
                else _parse_capacity_sweep(data["capacity_sweep"])
            ),
        )
        entry._validate()
        return entry

    def _validate(self) -> None:
        if (self.trace is not None or self.trace_path is not None) and (
            self.capacity_sweep is not None
        ):
            raise ModelError(
                "'capacity_sweep' does not apply to trace entries (a trace's "
                "events already fix the workload at every step)"
            )
        if self.generator is None:
            if self.params or self.sweep or self.count is not None:
                raise ModelError(
                    "'params', 'sweep' and 'count' require a 'generator' entry"
                )
            return
        if self.generator not in GENERATORS:
            raise ModelError(
                f"unknown generator {self.generator!r}; "
                f"expected one of {sorted(GENERATORS)}"
            )
        accepted = set(inspect.signature(GENERATORS[self.generator]).parameters)
        for name in itertools.chain(self.params, self.sweep):
            if name not in accepted:
                raise ModelError(
                    f"generator {self.generator!r} has no parameter {name!r}"
                )
        overlap = set(self.params) & set(self.sweep)
        if overlap:
            raise ModelError(
                f"parameters {sorted(overlap)} appear in both 'params' and 'sweep'"
            )
        if self.count is not None:
            if self.count < 1:
                raise ModelError("'count' must be at least one")
            if "seed" not in accepted:
                raise ModelError(
                    f"'count' requires a seeded generator, but "
                    f"{self.generator!r} takes no 'seed' parameter"
                )
            if "seed" in self.params or "seed" in self.sweep:
                raise ModelError("'count' and an explicit 'seed' are mutually exclusive")
        for values in self.sweep.values():
            if not values:
                raise ModelError("sweep axes must not be empty")

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {}
        if self.generator is not None:
            data["generator"] = self.generator
            if self.params:
                data["params"] = dict(self.params)
            if self.sweep:
                data["sweep"] = {name: list(v) for name, v in self.sweep.items()}
            if self.count is not None:
                data["count"] = self.count
        if self.configuration is not None:
            data["configuration"] = self.configuration
        if self.configuration_path is not None:
            data["configuration_path"] = self.configuration_path
        if self.workload is not None:
            data["workload"] = self.workload
        if self.workload_path is not None:
            data["workload_path"] = self.workload_path
        if self.trace is not None:
            data["trace"] = self.trace
        if self.trace_path is not None:
            data["trace_path"] = self.trace_path
        if self.capacity_sweep is not None:
            data["capacity_sweep"] = list(self.capacity_sweep)
        return data


@dataclass
class CampaignSpec:
    """A declarative batch campaign (see the module docstring for the schema)."""

    name: str = "campaign"
    seed: int = 0
    backend: str = "auto"
    weights: str = "prefer-budgets"
    entries: List[CampaignEntry] = field(default_factory=list)
    base_dir: Optional[Path] = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], base_dir: Optional[Union[str, Path]] = None
    ) -> "CampaignSpec":
        serialization.check_format_version(
            data, FORMAT_VERSION, FORMAT_VERSION, "campaign"
        )
        entries_data = data.get("entries")
        if not entries_data:
            raise ModelError("a campaign needs a non-empty 'entries' list")
        return cls(
            name=str(data.get("name", "campaign")),
            seed=int(data.get("seed", 0)),
            backend=str(data.get("backend", "auto")),
            weights=str(data.get("weights", "prefer-budgets")),
            entries=[CampaignEntry.from_dict(entry) for entry in entries_data],
            base_dir=None if base_dir is None else Path(base_dir),
        )

    @classmethod
    def from_json(
        cls, text: str, base_dir: Optional[Union[str, Path]] = None
    ) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ModelError(f"campaign is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ModelError("a campaign document must be a JSON object")
        return cls.from_dict(data, base_dir=base_dir)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "backend": self.backend,
            "weights": self.weights,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    # -- expansion --------------------------------------------------------------
    def _instance_seeds(self, entry_index: int, count: int) -> List[int]:
        """Derive ``count`` deterministic instance seeds from the campaign seed."""
        rng = random.Random(f"{self.seed}:{entry_index}")
        return [rng.randrange(2**31) for _ in range(count)]

    def _resolve_path(self, path_text: str) -> Path:
        path = Path(path_text)
        if not path.is_absolute() and self.base_dir is not None:
            path = self.base_dir / path
        return path

    def _entry_configurations(self, index: int, entry: CampaignEntry):
        """Yield ``(label, Configuration | Workload | AdmissionTrace)`` pairs."""
        if entry.trace is not None or entry.trace_path is not None:
            from repro.core.admission import load_trace, trace_from_dict

            if entry.trace is not None:
                trace = trace_from_dict(entry.trace)
            else:
                trace = load_trace(self._resolve_path(entry.trace_path))
            yield f"{index}:{trace.name}", trace
            return
        if entry.workload is not None or entry.workload_path is not None:
            if entry.workload is not None:
                workload = workload_from_dict(entry.workload)
            else:
                workload = load_workload(self._resolve_path(entry.workload_path))
            yield f"{index}:{workload.name}", workload
            return
        if entry.generator is None:
            if entry.configuration is not None:
                configuration = serialization.configuration_from_dict(entry.configuration)
            else:
                configuration = serialization.load_configuration(
                    self._resolve_path(entry.configuration_path)
                )
            yield f"{index}:{configuration.name}", configuration
            return

        generate = GENERATORS[entry.generator]
        sweep = dict(entry.sweep)
        if entry.count is not None:
            sweep["seed"] = self._instance_seeds(index, entry.count)
        axes = list(sweep.items())
        for combination in itertools.product(*(values for _, values in axes)):
            overrides = {name: value for (name, _), value in zip(axes, combination)}
            try:
                configuration = generate(**{**entry.params, **overrides})
            except TypeError as error:
                raise ModelError(
                    f"generator {entry.generator!r} rejected its parameters: {error}"
                ) from None
            suffix = ",".join(f"{name}={value}" for name, value in overrides.items())
            label = f"{index}:{entry.generator}" + (f"[{suffix}]" if suffix else "")
            yield label, configuration

    def expand(self) -> List[CampaignItem]:
        """Expand the campaign into its deterministic, ordered list of items."""
        from repro.core.admission import AdmissionTrace

        items: List[CampaignItem] = []
        for index, entry in enumerate(self.entries):
            for label, subject in self._entry_configurations(index, entry):
                if isinstance(subject, AdmissionTrace):
                    items.append(CampaignItem(label=label, trace=subject))
                    continue
                if isinstance(subject, Workload):
                    items.extend(self._workload_items(label, subject, entry))
                    continue
                if entry.capacity_sweep is None:
                    items.append(CampaignItem(label=label, configuration=subject))
                    continue
                buffer_names = [buffer.name for _, buffer in subject.all_buffers()]
                for limit in entry.capacity_sweep:
                    items.append(
                        CampaignItem(
                            label=f"{label}@cap{limit}",
                            configuration=subject,
                            capacity_limits={name: int(limit) for name in buffer_names},
                        )
                    )
        counts = Counter(item.label for item in items)
        duplicates = [label for label, count in counts.items() if count > 1]
        if duplicates:
            raise ModelError(f"campaign expands to duplicate labels: {sorted(duplicates)}")
        return items

    @staticmethod
    def _workload_items(label: str, workload: Workload, entry: CampaignEntry):
        """Expand one workload subject, applying ``capacity_sweep`` to every
        buffer of every application."""
        if entry.capacity_sweep is None:
            yield CampaignItem(label=label, workload=workload)
            return
        for limit in entry.capacity_sweep:
            yield CampaignItem(
                label=f"{label}@cap{limit}",
                workload=workload,
                workload_capacity_limits={
                    application.name: {
                        name: int(limit) for name in application.buffer_names()
                    }
                    for application in workload.applications
                },
            )


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign specification from a JSON file.

    Relative ``configuration_path`` entries are resolved against the
    campaign file's directory.
    """
    path = Path(path)
    return CampaignSpec.from_json(
        path.read_text(encoding="utf-8"), base_dir=path.parent
    )
