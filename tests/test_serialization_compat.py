"""Schema-versioning and backward-compatibility of the on-disk model format.

The committed fixture ``tests/fixtures/legacy_configuration_v1.json`` was
written by the pre-generalisation (version 1) serialiser.  Loading it must
produce objects equal to freshly built default-valued models, and writing a
legacy-expressible configuration must reproduce the fixture byte-for-byte —
the batch result cache hashes this document, so any drift would silently
invalidate every old campaign cache entry.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.exceptions import ModelError, SnapshotError
from repro.batch.cache import cache_key
from repro.batch.campaign import CampaignSpec
from repro.core.admission import random_trace, trace_from_dict, trace_to_dict
from repro.reliability.snapshot import SessionSnapshot
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)
from repro.taskgraph.serialization import (
    FORMAT_VERSION,
    LEGACY_FORMAT_VERSION,
    configuration_from_dict,
    configuration_from_json,
    configuration_to_dict,
    configuration_to_json,
    load_configuration,
    uses_extended_model,
)
from repro.taskgraph.workload import Workload, workload_from_dict, workload_to_dict

FIXTURE = Path(__file__).parent / "fixtures" / "legacy_configuration_v1.json"


class TestLegacyFixture:
    def test_loads_to_default_equal_objects(self):
        loaded = load_configuration(FIXTURE)
        fresh = chain_configuration(stages=3, max_capacity=8)
        assert loaded.name == fresh.name
        assert loaded.granularity == fresh.granularity
        assert list(loaded.platform.processors.values()) == list(
            fresh.platform.processors.values()
        )
        assert list(loaded.platform.memories.values()) == list(
            fresh.platform.memories.values()
        )
        for loaded_graph, fresh_graph in zip(loaded.task_graphs, fresh.task_graphs):
            assert list(loaded_graph.tasks) == list(fresh_graph.tasks)
            assert list(loaded_graph.buffers) == list(fresh_graph.buffers)

    def test_extended_fields_load_as_defaults(self):
        loaded = load_configuration(FIXTURE)
        for _, task in loaded.all_tasks():
            assert task.phases is None
            assert task.cycles_by_type is None
        for _, buffer in loaded.all_buffers():
            assert buffer.production_rates is None
            assert buffer.consumption_rates is None
        for processor in loaded.platform:
            assert processor.proc_type == "generic"
            assert processor.speed == 1.0
            assert processor.dvfs_levels is None

    def test_reserialisation_is_byte_identical(self):
        loaded = load_configuration(FIXTURE)
        assert configuration_to_json(loaded) == FIXTURE.read_text(encoding="utf-8")

    def test_legacy_configuration_stamps_version_one(self):
        data = configuration_to_dict(chain_configuration(stages=3, max_capacity=8))
        assert data["format_version"] == LEGACY_FORMAT_VERSION
        assert not uses_extended_model(configuration_from_dict(data))

    def test_legacy_cache_key_is_stable(self):
        # The exact pre-refactor hash of the fixture problem: if this moves,
        # every cached campaign result for legacy configurations is lost.
        loaded = load_configuration(FIXTURE)
        key = cache_key(configuration_to_dict(loaded), {"backend": "auto"})
        fresh = chain_configuration(stages=3, max_capacity=8)
        assert key == cache_key(configuration_to_dict(fresh), {"backend": "auto"})
        data = configuration_to_dict(loaded)
        for graph_data in data["task_graphs"]:
            for task_data in graph_data["tasks"]:
                assert "phases" not in task_data
                assert "cycles_by_type" not in task_data
            for buffer_data in graph_data["buffers"]:
                assert "production_rates" not in buffer_data
                assert "consumption_rates" not in buffer_data
        for processor_data in data["platform"]["processors"]:
            assert "proc_type" not in processor_data
            assert "speed" not in processor_data
            assert "dvfs_levels" not in processor_data


class TestExtendedSchema:
    def test_extended_configuration_stamps_version_two(self):
        data = configuration_to_dict(csdf_chain_configuration())
        assert data["format_version"] == FORMAT_VERSION

    def test_csdf_round_trip(self):
        configuration = csdf_chain_configuration(stages=3, phases_per_task=2)
        restored = configuration_from_json(configuration_to_json(configuration))
        for (_, original), (_, loaded) in zip(
            configuration.all_tasks(), restored.all_tasks()
        ):
            assert loaded == original
        for (_, original), (_, loaded) in zip(
            configuration.all_buffers(), restored.all_buffers()
        ):
            assert loaded == original

    def test_heterogeneous_round_trip(self):
        configuration = heterogeneous_random_configuration(
            task_count=5, seed=3, dvfs_levels=(1.0, 2.0)
        )
        restored = configuration_from_json(configuration_to_json(configuration))
        assert list(restored.platform.processors.values()) == list(
            configuration.platform.processors.values()
        )
        for (_, original), (_, loaded) in zip(
            configuration.all_tasks(), restored.all_tasks()
        ):
            assert loaded.cycles_by_type == original.cycles_by_type

    def test_missing_version_defaults_to_legacy(self):
        data = configuration_to_dict(chain_configuration())
        del data["format_version"]
        assert configuration_from_dict(data).name == "chain-3"

    def test_future_version_is_rejected(self):
        data = configuration_to_dict(chain_configuration())
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ModelError, match="newer than supported"):
            configuration_from_dict(data)


def _workload_document():
    workload = Workload(chain_configuration().platform, name="one")
    workload.add_application("chain", chain_configuration())
    return workload_to_dict(workload)


@pytest.mark.parametrize("value", ["x", None, [], math.nan, True, 0, -1])
@pytest.mark.parametrize(
    "document,load",
    [
        (lambda: configuration_to_dict(chain_configuration()), configuration_from_dict),
        (_workload_document, workload_from_dict),
        (lambda: {"entries": [{"generator": "chain"}]}, CampaignSpec.from_dict),
        (lambda: trace_to_dict(random_trace(event_count=2, seed=0)), trace_from_dict),
    ],
    ids=["configuration", "workload", "campaign", "trace"],
)
def test_malformed_format_version_is_a_model_error(document, load, value):
    """Only an integer from 1 to the supported version is a format version:
    a string, null, list or NaN must not escape as a raw ``ValueError`` or
    ``TypeError``, and ``true``, 0 or -1 must not be accepted."""
    data = document()
    data["format_version"] = value
    with pytest.raises(ModelError, match="format_version"):
        load(data)


@pytest.mark.parametrize("value", ["x", None, [], math.nan, True, 0, -1])
def test_malformed_snapshot_format_version_is_a_snapshot_error(value):
    """The snapshot loader applies the same version rule, but raises
    :class:`SnapshotError`: restore falls back to a full replay on it."""
    data = {"format_version": value, "journal_seq": 0, "fingerprint": "x"}
    with pytest.raises(SnapshotError, match="format_version"):
        SessionSnapshot.from_dict(data)


_MALFORMED_FIELDS = [
    # A string is not a list: "12" must not load as the rates (1, 2).
    *(("tasks", "phases", value) for value in ["12", "2", 3, True, ["x"], [None], [True]]),
    *(
        ("buffers", field, value)
        for field in ("production_rates", "consumption_rates")
        for value in ["2", "12", 2, True, ["x"], [None], [True]]
    ),
    # A count is a number, not a bool or a numeric string.
    *(
        ("buffers", field, value)
        for field in ("initial_tokens", "min_capacity", "max_capacity")
        for value in [True, "3", "x", [3]]
    ),
]


@pytest.mark.parametrize(
    "entity,field,value",
    _MALFORMED_FIELDS,
    ids=[f"{field}={value!r}" for _, field, value in _MALFORMED_FIELDS],
)
def test_malformed_phase_rate_or_count_is_a_model_error(entity, field, value):
    """The fields the SRDF lowering reads take JSON lists of numbers and
    integer counts only: anything else is a :class:`ModelError` naming the
    field, never a raw ``ValueError``/``TypeError`` or a silently different
    model."""
    data = configuration_to_dict(random_dag_configuration(4, 2, seed=1))
    data["task_graphs"][0][entity][0][field] = value
    with pytest.raises(ModelError, match=field):
        configuration_from_dict(data)


def _set_processor(field, value):
    def edit(data):
        data["platform"]["processors"][0][field] = value

    return edit


def _set_task(field, value):
    def edit(data):
        data["task_graphs"][0]["tasks"][0][field] = value

    return edit


def _set_granularity(data):
    data["granularity"] = True


#: Numeric fields of the platform, tasks and configuration, one malformed
#: value each: before they were read through the checked helpers, the
#: accepted ones loaded as a silently different model that allocated
#: ("12" as the DVFS levels (1, 2), ``true`` as 1.0) and the rest escaped
#: as a raw ``ValueError``.
_MALFORMED_NUMBERS = [
    ("dvfs_levels", "12", _set_processor("dvfs_levels", "12")),
    ("dvfs_levels", ["x"], _set_processor("dvfs_levels", ["x"])),
    ("speed", True, _set_processor("speed", True)),
    ("cycles_by_type", "ab", _set_task("cycles_by_type", "ab")),
    ("cycles_by_type", {"big": True}, _set_task("cycles_by_type", {"big": True})),
    ("cycles_by_type", {"big": "x"}, _set_task("cycles_by_type", {"big": "x"})),
    ("wcet", True, _set_task("wcet", True)),
    ("granularity", True, _set_granularity),
]


@pytest.mark.parametrize(
    "field,value,edit",
    _MALFORMED_NUMBERS,
    ids=[f"{field}={value!r}" for field, value, _ in _MALFORMED_NUMBERS],
)
def test_malformed_number_is_a_model_error(field, value, edit):
    data = configuration_to_dict(heterogeneous_random_configuration(seed=1))
    edit(data)
    with pytest.raises(ModelError, match=field):
        configuration_from_dict(data)


def _set_platform(field, value):
    def edit(data):
        data["platform"][field] = value

    return edit


def _set_graph(field, value):
    def edit(data):
        data["task_graphs"][0][field] = value

    return edit


def _set_first_graph(value):
    def edit(data):
        data["task_graphs"][0] = value

    return edit


#: Containers of the model documents with the wrong JSON shape: each is a
#: :class:`ModelError` naming it, never a raw ``AttributeError`` or
#: ``TypeError`` from reading a number as an object or a list.
_MALFORMED_SHAPES = [
    ("processors", 3, _set_platform("processors", 3)),
    ("processor", [5], _set_platform("processors", [5])),
    ("memories", "m", _set_platform("memories", "m")),
    ("memory", [1], _set_platform("memories", [1])),
    ("task graph", 5, _set_first_graph(5)),
    ("tasks", 3, _set_graph("tasks", 3)),
    ("task", [1], _set_graph("tasks", [1])),
    ("buffers", {}, _set_graph("buffers", {})),
    ("buffer", [2], _set_graph("buffers", [2])),
]


@pytest.mark.parametrize(
    "field,value,edit",
    _MALFORMED_SHAPES,
    ids=[f"{field}={value!r}" for field, value, _ in _MALFORMED_SHAPES],
)
def test_malformed_container_is_a_model_error(field, value, edit):
    data = configuration_to_dict(random_dag_configuration(4, 2, seed=1))
    edit(data)
    with pytest.raises(ModelError, match=field):
        configuration_from_dict(data)
