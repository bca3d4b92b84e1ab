"""Benchmark: the price of durability, and the payoff of snapshots.

Two questions about the crash-safe admission path:

* **journal + snapshot overhead** — :func:`replay_trace_durably` does
  everything :func:`replay_trace` does plus one checksummed ``O_APPEND``
  write per event and one atomic snapshot every few events.  The gates are
  deterministic counters, not a wall-clock race: the ``fsync`` count per
  run, the journal bytes per event, byte-identical journals across runs,
  and a journal-only restore that reproduces the run's final snapshot byte
  for byte.  Both wall times are recorded alongside.
* **restore-from-snapshot vs full replay** — after a crash, restoring from
  snapshot + journal tail re-solves only the post-snapshot events, while a
  journal-only restore replays the whole history.  The gate counts the
  replayed events (``reliability.journal_replays``): the snapshot restore
  replays exactly the journal tail, fewer than the full replay's every
  event.  Both wall times are recorded alongside.

Both paths must agree with the plain replay within 1e-6 — durability is a
pure robustness change, never a numerical one.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import pytest

from repro.core import AllocatorOptions, JointAllocator, random_trace, replay_trace
from repro.obs import capture
from repro.reliability import (
    default_snapshot_path,
    load_snapshot,
    read_journal,
    replay_trace_durably,
    restore_controller,
    snapshot_controller,
)

EVENT_COUNT = 12
SNAPSHOT_EVERY = 4
#: Best-of-REPEATS wall times absorb one-off noise spikes.
REPEATS = 3
#: One journal sync plus one snapshot ``fsync`` per snapshot, and one sync
#: when the journal closes.
FSYNCS_PER_RUN = 2 * (EVENT_COUNT // SNAPSHOT_EVERY) + 1
#: Ceiling on the journal size per event (the opening record included).
MAX_JOURNAL_BYTES_PER_EVENT = 2048

_fresh = itertools.count()


def _options():
    return AllocatorOptions(verify=False, run_simulation=False)


def _allocator():
    return JointAllocator(options=_options())


def _trace():
    return random_trace(
        event_count=EVENT_COUNT, seed=31, task_count=3, processor_count=3
    )


def _interleaved_best_times(run_a, run_b):
    """Best-of-REPEATS for two competitors, alternating runs (fair race)."""
    best_a = best_b = float("inf")
    result_a = result_b = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result_a = run_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        result_b = run_b()
        best_b = min(best_b, time.perf_counter() - start)
    return (best_a, result_a), (best_b, result_b)


def _assert_equivalent(ours, theirs):
    assert [r.status for r in ours.records] == [r.status for r in theirs.records]
    for a, b in zip(ours.records, theirs.records):
        if b.objective_value is not None:
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-6)


def _durable_state(snapshot):
    """A snapshot's bytes without its wall-clock statistics."""
    data = snapshot.to_dict()
    if data["stats"] is not None:
        data["stats"] = {
            key: value for key, value in data["stats"].items() if not key.endswith("_time")
        }
    return json.dumps(data, sort_keys=True).encode()


def test_bench_durable_replay_overhead(benchmark, record_series, tmp_path, monkeypatch):
    trace = _trace()
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(descriptor):
        fsyncs.append(descriptor)
        real_fsync(descriptor)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    journals = []

    def plain():
        return replay_trace(trace, allocator=_allocator())

    def durable():
        journal_path = tmp_path / f"run-{next(_fresh)}.journal"
        journals.append(journal_path)
        return replay_trace_durably(
            trace,
            journal_path,
            snapshot_every=SNAPSHOT_EVERY,
            allocator=_allocator(),
        )

    (plain_time, plain_result), (durable_time, durable_result) = (
        _interleaved_best_times(plain, durable)
    )
    _assert_equivalent(durable_result, plain_result)

    assert len(fsyncs) == REPEATS * FSYNCS_PER_RUN
    journal_bytes = {path.read_bytes() for path in journals}
    assert len(journal_bytes) == 1, "durable runs of one trace journal different bytes"
    bytes_per_event = len(journal_bytes.pop()) / EVENT_COUNT
    assert bytes_per_event < MAX_JOURNAL_BYTES_PER_EVENT
    final = load_snapshot(default_snapshot_path(journals[0]))
    restored, _ = restore_controller(read_journal(journals[0]), allocator=_allocator())
    assert _durable_state(snapshot_controller(restored, final.journal_seq)) == (
        _durable_state(final)
    )

    record_series(benchmark, "events", EVENT_COUNT)
    record_series(benchmark, "fsyncs_per_run", FSYNCS_PER_RUN)
    record_series(benchmark, "journal_bytes_per_event", bytes_per_event)
    record_series(benchmark, "plain_seconds", plain_time)
    record_series(benchmark, "durable_seconds", durable_time)
    record_series(benchmark, "overhead_fraction", durable_time / plain_time - 1.0)
    benchmark(durable)


def test_bench_restore_from_snapshot_vs_full_replay(
    benchmark, record_series, tmp_path
):
    trace = _trace()
    journal_path = tmp_path / "run.journal"
    baseline = replay_trace_durably(
        trace,
        journal_path,
        snapshot_every=SNAPSHOT_EVERY,
        allocator=_allocator(),
    )
    contents = read_journal(journal_path)
    snapshot = load_snapshot(default_snapshot_path(journal_path))
    # The last snapshot covers all but the journal tail.
    assert snapshot.journal_seq == (EVENT_COUNT // SNAPSHOT_EVERY) * SNAPSHOT_EVERY

    def from_snapshot():
        return restore_controller(contents, snapshot, allocator=_allocator())

    def full_replay():
        return restore_controller(contents, allocator=_allocator())

    (snap_time, (snap_controller, snap_records)), (full_time, (_, full_records)) = (
        _interleaved_best_times(from_snapshot, full_replay)
    )

    # Both restores land on the uninterrupted run's timeline and workload.
    for restored in (snap_records, full_records):
        assert [r.status for r in restored] == [
            r.status for r in baseline.records
        ]
    if baseline.final_mapped is not None:
        assert snap_controller.mapped.objective_value == pytest.approx(
            baseline.final_mapped.objective_value, abs=1e-6
        )

    def replayed(restore) -> int:
        """The journal events one restore re-solved."""
        with capture() as telemetry:
            restore()
        return telemetry.metrics.get("reliability.journal_replays", {}).get("value", 0)

    tail = EVENT_COUNT - snapshot.journal_seq
    assert tail < EVENT_COUNT
    assert replayed(from_snapshot) == tail
    assert replayed(full_replay) == EVENT_COUNT

    record_series(benchmark, "events", EVENT_COUNT)
    record_series(benchmark, "snapshot_seq", snapshot.journal_seq)
    record_series(benchmark, "snapshot_restore_seconds", snap_time)
    record_series(benchmark, "full_replay_seconds", full_time)
    record_series(
        benchmark, "speedup", full_time / max(snap_time, 1e-12)
    )
    benchmark(from_snapshot)
