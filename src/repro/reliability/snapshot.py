"""Session snapshots, crash recovery and durable trace replay.

A :class:`SessionSnapshot` captures everything a killed admission run needs
to resume without re-solving its history: the committed workload document,
the warm-start and interior points of the live
:class:`~repro.solver.parametric.SolveSession` (keyed by variable *name*,
so they re-apply cleanly to a freshly compiled program), the aggregate
session statistics and the journal sequence number the snapshot covers.  Snapshots are written atomically (temp file +
``os.replace``), so a crash mid-snapshot leaves the previous snapshot
intact.

:func:`restore_controller` rebuilds an
:class:`~repro.core.admission.AdmissionController` from snapshot +
journal: the workload is recompiled, the warm state re-installed, one warm
re-solve recommits the allocation (within 1e-6 of the uninterrupted run —
the incremental-equals-rebuild lock-in of the session layer), and only the
journal events *after* the snapshot are replayed through the controller.
Replayed outcomes are checked against the journalled ones — a divergence
means the journal does not describe this code/platform and raises
:class:`~repro.exceptions.JournalError` rather than silently rewriting
history.

:func:`replay_trace_durably` is the crash-safe counterpart of
:func:`repro.core.admission.replay_trace`: every committed event is
journalled, a snapshot is taken every ``snapshot_every`` events, and
``resume=True`` picks a killed run up at the exact event boundary it died
on, producing the same :class:`~repro.core.admission.TraceResult` as an
uninterrupted replay.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.admission import (
    AdmissionController,
    AdmissionTrace,
    TraceRecord,
    TraceResult,
    apply_trace_event,
)
from repro.core.allocator import JointAllocator
from repro.exceptions import JournalError, ModelError, SnapshotError
from repro.obs.metrics import get_registry as _metrics_registry
from repro.reliability.faults import maybe_fail
from repro.reliability.journal import (
    AdmissionJournal,
    JournalContents,
    platform_fingerprint,
    read_journal,
)
from repro.solver.parametric import SessionStats
from repro.taskgraph.serialization import check_format_version

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SessionSnapshot",
    "default_snapshot_path",
    "load_snapshot",
    "restore_controller",
    "replay_trace_durably",
    "save_snapshot",
    "snapshot_controller",
]

SNAPSHOT_FORMAT_VERSION = 1


@dataclass
class SessionSnapshot:
    """Serialized controller/session state as of one journal sequence number."""

    journal_seq: int
    fingerprint: str
    workload_data: Optional[Dict[str, object]] = None   #: None = nothing running
    session_state: Optional[Dict[str, object]] = None   #: SolveSession.state_dict()
    stats: Optional[Dict[str, object]] = None           #: SessionStats.as_dict()
    objective_value: Optional[float] = None             #: committed objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "journal_seq": self.journal_seq,
            "fingerprint": self.fingerprint,
            "workload": self.workload_data,
            "session_state": self.session_state,
            "stats": self.stats,
            "objective_value": self.objective_value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SessionSnapshot":
        try:
            check_format_version(
                data, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_FORMAT_VERSION, "snapshot"
            )
        except ModelError as error:
            raise SnapshotError(str(error)) from error
        return cls(
            journal_seq=int(data["journal_seq"]),
            fingerprint=str(data["fingerprint"]),
            workload_data=(
                None if data.get("workload") is None else dict(data["workload"])
            ),
            session_state=(
                None
                if data.get("session_state") is None
                else dict(data["session_state"])
            ),
            stats=None if data.get("stats") is None else dict(data["stats"]),
            objective_value=(
                None
                if data.get("objective_value") is None
                else float(data["objective_value"])
            ),
        )


def default_snapshot_path(journal_path: Union[str, Path]) -> Path:
    """Where ``replay_trace_durably`` keeps the journal's snapshot."""
    return Path(str(journal_path) + ".snapshot")


def snapshot_controller(
    controller: AdmissionController, journal_seq: int
) -> SessionSnapshot:
    """Capture a controller's durable state as of ``journal_seq``."""
    from repro.taskgraph.workload import workload_to_dict

    workload_data = None
    session_state = None
    if controller._session is not None and len(controller.workload):
        workload_data = workload_to_dict(controller.workload)
        session_state = controller._session._session.state_dict()
    stats = controller._stats
    return SessionSnapshot(
        journal_seq=int(journal_seq),
        fingerprint=platform_fingerprint(controller.platform),
        workload_data=workload_data,
        session_state=session_state,
        stats=None if stats is None else dict(stats.as_dict()),
        objective_value=(
            None if controller.mapped is None else controller.mapped.objective_value
        ),
    )


def save_snapshot(snapshot: SessionSnapshot, path: Union[str, Path]) -> None:
    """Write a snapshot atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}-", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(snapshot.to_dict(), handle, sort_keys=True, indent=2)
            # fsync before the rename: os.replace is atomic in the
            # namespace, but without the sync a power loss could publish
            # the new name over empty (unflushed) content.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_snapshot(path: Union[str, Path]) -> SessionSnapshot:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    if not isinstance(data, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
    return SessionSnapshot.from_dict(data)


def _load_stats(data: Optional[Dict[str, object]]) -> Optional[SessionStats]:
    if data is None:
        return None
    known = {
        key: value
        for key, value in data.items()
        if key in SessionStats.__dataclass_fields__
    }
    return SessionStats(**known)


def _coerce_journal(journal: object) -> JournalContents:
    if isinstance(journal, JournalContents):
        return journal
    return read_journal(journal)


def _coerce_snapshot(snapshot: object) -> Optional[SessionSnapshot]:
    if snapshot is None or isinstance(snapshot, SessionSnapshot):
        return snapshot
    return load_snapshot(snapshot)


def restore_controller(
    journal: object,
    snapshot: object = None,
    allocator: Optional[JointAllocator] = None,
) -> Tuple[AdmissionController, List[TraceRecord]]:
    """Rebuild a controller from a journal, optionally fast-forwarded by a snapshot.

    Events covered by the snapshot contribute their *recorded* outcomes to
    the returned timeline without re-solving anything; events after it are
    replayed through the restored controller (each replay is checked
    against its journalled outcome and counted as
    ``reliability.journal_replays``).
    """
    from repro.taskgraph.workload import workload_from_dict

    contents = _coerce_journal(journal)
    snap = _coerce_snapshot(snapshot)

    if snap is not None:
        if contents.fingerprint is not None and snap.fingerprint != contents.fingerprint:
            raise SnapshotError(
                f"snapshot platform fingerprint {snap.fingerprint!r} does not "
                f"match the journal's {contents.fingerprint!r} — refusing to "
                f"restore onto a different platform"
            )
        if snap.journal_seq > contents.last_seq:
            raise SnapshotError(
                f"snapshot covers journal seq {snap.journal_seq} but the "
                f"journal ends at seq {contents.last_seq} — the snapshot is "
                f"newer than the journal tail"
            )

    platform = contents.platform()
    records: List[TraceRecord] = []
    start_seq = 0

    if snap is not None and snap.workload_data is not None:
        workload = workload_from_dict(snap.workload_data)
        restored_fingerprint = platform_fingerprint(workload.platform)
        if restored_fingerprint != snap.fingerprint:
            raise SnapshotError(
                "the snapshot's workload was serialised against a different "
                "platform than its fingerprint claims — refusing to restore"
            )
        controller = AdmissionController(workload.platform, allocator=allocator)
        controller.workload = workload
        session = controller.allocator.workload_session(workload)
        if snap.session_state is not None:
            session._session.load_state(snap.session_state)
        stats = _load_stats(snap.stats)
        if stats is not None:
            session._adopt_stats(stats)
        controller._session = session
        controller._stats = session.stats
        # One warm re-solve recommits the allocation; the session layer's
        # incremental-equals-rebuild lock-in keeps it within 1e-6 of the
        # uninterrupted run's committed workload.
        controller.mapped = controller._resilient_allocate(session)
        start_seq = snap.journal_seq
    else:
        controller = AdmissionController(platform, allocator=allocator)
        if snap is not None:
            # Snapshot of an empty platform: only the statistics carry over.
            controller._stats = _load_stats(snap.stats)
            start_seq = snap.journal_seq

    registry = _metrics_registry()
    for entry in contents.entries:
        if entry.seq <= start_seq:
            records.append(entry.record())
            continue
        record = apply_trace_event(controller, entry.seq - 1, entry.event)
        if registry.enabled:
            registry.counter("reliability.journal_replays").inc()
        recorded_status = str(entry.outcome.get("status"))
        if record.status != recorded_status:
            raise JournalError(
                f"replay diverged at journal seq {entry.seq}: recorded status "
                f"{recorded_status!r}, replayed {record.status!r} — the "
                f"journal does not describe this platform/configuration"
            )
        records.append(record)
    return controller, records


def replay_trace_durably(
    trace: AdmissionTrace,
    journal_path: Union[str, Path],
    snapshot_path: Optional[Union[str, Path]] = None,
    snapshot_every: int = 0,
    allocator: Optional[JointAllocator] = None,
    resume: bool = False,
    fsync: bool = False,
) -> TraceResult:
    """Replay a trace with a durable journal and periodic snapshots.

    The crash-safe counterpart of :func:`repro.core.admission.replay_trace`:
    each committed event is appended to the journal at ``journal_path``
    (checksummed, truncation-tolerant), and — with ``snapshot_every > 0`` —
    a :class:`SessionSnapshot` is written atomically to ``snapshot_path``
    (default: ``<journal_path>.snapshot``) after every that-many events.

    ``resume=True`` restores a killed run: the controller is rebuilt from
    snapshot + journal (events already journalled are *not* re-asked; their
    recorded outcomes fill the timeline) and the replay continues with the
    first un-journalled trace event.  The returned result matches an
    uninterrupted replay within 1e-6.  Without ``resume``, a journal that
    already holds committed events is refused (:class:`~repro.exceptions.
    JournalError`) — appending a second copy of the trace would make a
    later restore double-apply every event.

    Every append is durable against process death; against power loss the
    journal is ``fsync``-ed before each snapshot is published and on close,
    so at most the events since the last barrier are lost.  ``fsync=True``
    hardens every single append into a power-loss barrier (one ``fsync``
    per event).
    """
    if snapshot_path is None:
        snapshot_path = default_snapshot_path(journal_path)
    snapshot_path = Path(snapshot_path)

    done = 0
    records: List[TraceRecord] = []
    if resume:
        contents = read_journal(journal_path)
        if (
            contents.fingerprint is not None
            and contents.fingerprint != platform_fingerprint(trace.platform)
        ):
            raise JournalError(
                f"journal {journal_path} was recorded against a different "
                f"platform than trace {trace.name!r} — refusing to resume"
            )
        snap = _coerce_snapshot(snapshot_path) if snapshot_path.exists() else None
        controller, records = restore_controller(
            contents, snap, allocator=allocator
        )
        done = contents.last_seq
        if done > len(trace.events):
            raise JournalError(
                f"journal {journal_path} holds {done} events but trace "
                f"{trace.name!r} only has {len(trace.events)} — wrong trace?"
            )
    else:
        existing = read_journal(journal_path)
        if existing.entries:
            # Appending a fresh replay onto an old journal would duplicate
            # every event, and a later restore would double-apply them.
            raise JournalError(
                f"journal {journal_path} already holds "
                f"{len(existing.entries)} committed events; resume it "
                f"(resume=True / --restore) to continue, or remove the "
                f"file to start over"
            )
        controller = AdmissionController(trace.platform, allocator=allocator)

    with AdmissionJournal(journal_path, fsync=fsync).open(
        trace.platform, name=trace.name
    ) as journal:
        for index in range(done, len(trace.events)):
            # The kill-and-restore chaos site: arming ``replay.event`` with
            # an ``exit`` action at the nth event simulates a crash at that
            # exact event boundary.
            maybe_fail("replay.event", label=str(index))
            event = trace.events[index]
            record = apply_trace_event(controller, index, event)
            records.append(record)
            journal.append_event(event, record)
            if snapshot_every > 0 and (index + 1) % snapshot_every == 0:
                # Power-loss barrier before publishing: a snapshot on disk
                # must never reference a journal seq that is not durable.
                journal.sync()
                save_snapshot(
                    snapshot_controller(controller, journal.seq), snapshot_path
                )

    stats = controller.session_stats
    return TraceResult(
        trace=trace,
        records=records,
        final_mapped=controller.mapped,
        solver_stats=dict(stats.as_dict()) if stats is not None else {},
    )
