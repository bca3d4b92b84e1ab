"""Kill-and-restore equivalence: the ISSUE's headline acceptance test.

A durable replay is killed (hard, ``os._exit`` — no ``finally`` blocks, no
atexit) at seeded event boundaries; a fresh process restores from the
journal (and snapshot, when present) and finishes the trace.  The stitched
run must land on the same committed workload and the same per-event verdicts
as an uninterrupted run, exactly: every session solve depends only on the
running membership.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import AllocatorOptions, JointAllocator, random_trace, replay_trace
from repro.reliability import (
    FaultPlan,
    armed,
    read_journal,
    replay_trace_durably,
    restore_controller,
)
from repro.reliability.faults import EXIT_STATUS

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="kill-and-restore test forks a child to crash",
)


def options() -> AllocatorOptions:
    return AllocatorOptions(verify=False, run_simulation=False)


def allocator() -> JointAllocator:
    return JointAllocator(options=options())


@pytest.fixture(scope="module")
def trace():
    return random_trace(event_count=8, seed=13, task_count=3, processor_count=3)


@pytest.fixture(scope="module")
def baseline(trace):
    return replay_trace(trace, allocator=allocator())


def crash_during_replay(trace, journal_path, crash_at, snapshot_every=0):
    """Run a durable replay in a forked child that dies at event ``crash_at``."""
    child = os.fork()
    if child == 0:
        # Child: never return into pytest — _exit on every path.
        try:
            plan = FaultPlan(seed=crash_at).arm(
                "replay.event", "exit", match=str(crash_at)
            )
            with armed(plan):
                replay_trace_durably(
                    trace,
                    journal_path,
                    snapshot_every=snapshot_every,
                    allocator=allocator(),
                )
        except BaseException:
            os._exit(99)
        os._exit(98)  # replay finished without crashing: wrong crash_at
    _, status = os.waitpid(child, 0)
    return os.waitstatus_to_exitcode(status)


def allocation(mapped):
    """The objective and every application's rounded allocation, exactly."""
    if mapped is None:
        return None
    return repr(
        (
            mapped.objective_value,
            sorted(mapped.flattened("budgets").items()),
            sorted(mapped.flattened("buffer_capacities").items()),
        )
    )


def assert_matches_baseline(result, baseline):
    assert [r.status for r in result.records] == [r.status for r in baseline.records]
    assert [repr(r.objective_value) for r in result.records] == [
        repr(r.objective_value) for r in baseline.records
    ]
    assert allocation(result.final_mapped) == allocation(baseline.final_mapped)


@pytest.mark.parametrize("crash_at", [1, 4, 7])
def test_kill_and_restore_matches_an_uninterrupted_run(
    trace, baseline, tmp_path, crash_at
):
    journal_path = tmp_path / "run.journal"
    exitcode = crash_during_replay(trace, journal_path, crash_at)
    assert exitcode == EXIT_STATUS
    # The journal holds exactly the events committed before the crash.
    contents = read_journal(journal_path)
    assert contents.last_seq == crash_at
    result = replay_trace_durably(
        trace, journal_path, allocator=allocator(), resume=True
    )
    assert_matches_baseline(result, baseline)


def test_kill_and_restore_from_snapshot(trace, baseline, tmp_path):
    journal_path = tmp_path / "run.journal"
    exitcode = crash_during_replay(trace, journal_path, crash_at=6, snapshot_every=2)
    assert exitcode == EXIT_STATUS
    result = replay_trace_durably(
        trace,
        journal_path,
        snapshot_every=2,
        allocator=allocator(),
        resume=True,
    )
    assert_matches_baseline(result, baseline)


def test_double_crash_then_restore(trace, baseline, tmp_path):
    """Crash, resume, crash again further in, resume again: still equivalent."""
    journal_path = tmp_path / "run.journal"
    assert crash_during_replay(trace, journal_path, crash_at=2) == EXIT_STATUS

    child = os.fork()
    if child == 0:
        try:
            plan = FaultPlan(seed=5).arm("replay.event", "exit", match="5")
            with armed(plan):
                replay_trace_durably(
                    trace, journal_path, allocator=allocator(), resume=True
                )
        except BaseException:
            os._exit(99)
        os._exit(98)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == EXIT_STATUS
    assert read_journal(journal_path).last_seq == 5

    result = replay_trace_durably(
        trace, journal_path, allocator=allocator(), resume=True
    )
    assert_matches_baseline(result, baseline)


def test_restore_controller_from_a_crashed_journal(trace, tmp_path):
    """The restored controller is live: it can keep admitting after restore."""
    journal_path = tmp_path / "run.journal"
    assert crash_during_replay(trace, journal_path, crash_at=4) == EXIT_STATUS
    contents = read_journal(journal_path)
    controller, records = restore_controller(contents, allocator=allocator())
    assert len(records) == len(contents.entries)
    # Finish the trace by hand through the live controller.
    from repro.core import apply_trace_event

    for index in range(len(records), len(trace.events)):
        apply_trace_event(controller, index, trace.events[index])
    uninterrupted = replay_trace(trace, allocator=allocator())
    expected = (
        sorted(uninterrupted.final_mapped.applications)
        if uninterrupted.final_mapped is not None
        else []
    )
    assert sorted(controller.running) == expected
    assert allocation(controller.mapped) == allocation(uninterrupted.final_mapped)


def test_restore_accepts_a_snapshot_with_retired_warm_rung_state(
    trace, baseline, tmp_path
):
    """Snapshots written while sessions carried warm state hold a
    ``session_state`` (the previous optimum and interior hint, and in older
    documents the final-barrier rung and the rungs-back setting), and
    snapshots written before equalities were substituted at compile time
    still carry per-block elimination counters and the retired
    ``eliminations`` session counter.  They restore unchanged: the retired
    keys are ignored."""
    from repro.core import AdmissionController
    from repro.reliability.snapshot import (
        SessionSnapshot,
        default_snapshot_path,
        load_snapshot,
    )

    journal_path = tmp_path / "run.journal"
    replay_trace_durably(
        trace, journal_path, snapshot_every=3, allocator=allocator()
    )
    data = load_snapshot(default_snapshot_path(journal_path)).to_dict()
    assert data["workload"] is not None and "session_state" not in data
    data["session_state"] = {
        "warm": {"app0/x": 1.0},
        "interior": {"app0/x": 2.0},
        "last_final_barrier": 244140625.0,
        "warm_rungs_back": 3,
    }
    data["stats"].update(
        elimination_blocks_computed=5, elimination_blocks_reused=9, eliminations=2
    )
    snapshot = SessionSnapshot.from_dict(data)
    assert snapshot.journal_seq < len(trace.events)

    controller, records = AdmissionController.restore(
        snapshot, journal_path, allocator=allocator()
    )
    assert [r.status for r in records] == [r.status for r in baseline.records]
    assert sorted(controller.running) == sorted(baseline.final_mapped.applications)
    assert allocation(controller.mapped) == allocation(baseline.final_mapped)


def test_restore_ignores_the_warm_state_of_an_old_snapshot(trace, baseline, tmp_path):
    """A hand-built document of the form snapshots had while sessions carried
    their warm point over by variable name.  Its warm and interior points
    are ignored, however far off they are: the restored controller's
    re-solve is exactly the uninterrupted run's."""
    from repro.core import AdmissionController, AdmissionTrace
    from repro.reliability.journal import platform_fingerprint
    from repro.reliability.snapshot import SessionSnapshot
    from repro.taskgraph.workload import workload_to_dict

    journal_path = tmp_path / "run.journal"
    replay_trace_durably(trace, journal_path, allocator=allocator())
    covered = 4
    prefix = replay_trace(
        AdmissionTrace(trace.platform, trace.events[:covered], trace.name),
        allocator=allocator(),
    )
    workload = prefix.final_mapped.workload
    names = [
        f"{application}/{task}"
        for application, mapped in prefix.final_mapped.applications.items()
        for task in mapped.budgets
    ]
    document = {
        "format_version": 1,
        "journal_seq": covered,
        "fingerprint": platform_fingerprint(trace.platform),
        "workload": workload_to_dict(workload),
        "session_state": {
            "warm": {name: 1e9 for name in names},
            "interior": {name: -1e9 for name in names},
        },
        "stats": {"compiles": 4, "solves": 4, "warm_started": 3},
        "objective_value": prefix.final_mapped.objective_value,
    }
    snapshot = SessionSnapshot.from_dict(document)
    assert snapshot.to_dict().keys() == {
        "format_version",
        "journal_seq",
        "fingerprint",
        "workload",
        "stats",
        "objective_value",
    }
    controller, records = AdmissionController.restore(
        snapshot, journal_path, allocator=allocator()
    )
    assert [r.status for r in records] == [r.status for r in baseline.records]
    assert allocation(controller.mapped) == allocation(baseline.final_mapped)
