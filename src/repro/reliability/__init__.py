"""Crash safety: durable journal, snapshot/restore, fault injection, interrupts.

Lazy (PEP 562) exports: ``repro.reliability.faults`` and ``.interrupts``
are dependency-free leaves imported from hot paths (solver, cache, CLI), so
importing this package must not drag in the journal/snapshot layer — which
imports ``repro.core.admission`` and everything under it.

The package holds no retry helper: every solve is deterministic, so
repeating it on the same input cannot change its outcome.  Each rescue path
changes the method or the start point and lives next to the solve it
rescues (see the README's "Rescue paths" table).
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS = {
    # faults
    "FaultPlan": "repro.reliability.faults",
    "FaultSpec": "repro.reliability.faults",
    "active_plan": "repro.reliability.faults",
    "armed": "repro.reliability.faults",
    "install": "repro.reliability.faults",
    "maybe_fail": "repro.reliability.faults",
    "uninstall": "repro.reliability.faults",
    # interrupts
    "graceful_interrupts": "repro.reliability.interrupts",
    # journal
    "JOURNAL_SCHEMA_VERSION": "repro.reliability.journal",
    "AdmissionJournal": "repro.reliability.journal",
    "JournalContents": "repro.reliability.journal",
    "JournalEntry": "repro.reliability.journal",
    "platform_fingerprint": "repro.reliability.journal",
    "read_journal": "repro.reliability.journal",
    # snapshot / restore
    "SNAPSHOT_FORMAT_VERSION": "repro.reliability.snapshot",
    "SessionSnapshot": "repro.reliability.snapshot",
    "default_snapshot_path": "repro.reliability.snapshot",
    "load_snapshot": "repro.reliability.snapshot",
    "replay_trace_durably": "repro.reliability.snapshot",
    "restore_controller": "repro.reliability.snapshot",
    "save_snapshot": "repro.reliability.snapshot",
    "snapshot_controller": "repro.reliability.snapshot",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
