"""Run-time admission control over a shared platform.

The DATE 2010 setting is a *run-time* one: applications start and stop on a
shared MPSoC, and budgets and buffer capacities must be re-allocated on the
fly.  This module answers the run-time question — *can this application be
admitted alongside the running workload?* — on top of the incremental
session-editing API of :class:`~repro.core.allocator.AllocationSession`:

* :class:`AdmissionController` holds the running workload and one
  allocation session.  :meth:`AdmissionController.admit` tentatively adds
  the candidate, re-running the combined-load screens and the joint solve;
  an admitted application stays (with a fresh :class:`~repro.taskgraph.
  workload.MappedWorkload` for the whole platform), a rejected one is rolled
  back and the running applications keep their allocation.  Rejections carry
  a *structured reason*: the fast closed-form load screens
  (:data:`STAGE_LOAD_SCREEN`) or solver-proven infeasibility of the joint
  program (:data:`STAGE_SOLVER`).
* :class:`AdmissionTrace` is a replayable sequence of arrival/departure
  events over one shared platform (JSON-serialisable, so traces can be
  versioned next to their results and driven through batch campaigns);
  :func:`random_trace` generates seeded traces, and :func:`replay_trace`
  drives a controller through a trace and returns the per-event
  :class:`TraceRecord` timeline.

Every event edits one running session: the joint program is rebuilt for
the new membership and solved from its own model-built start.  Nothing
carries over from one event's solve to the next, so each event's
allocation is the one-shot allocation of the new membership.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.exceptions import (
    AllocationError,
    BindingError,
    FaultInjected,
    InfeasibleModelError,
    InfeasibleProblemError,
    ModelError,
    NumericalError,
)
from repro.obs.metrics import get_registry as _metrics_registry
from repro.obs.trace import span as obs_span
from repro.core.allocator import AllocationSession, AllocatorOptions, JointAllocator
from repro.core.objective import ObjectiveWeights
from repro.taskgraph.configuration import Configuration
from repro.taskgraph.platform import Platform
from repro.taskgraph.workload import MappedWorkload, Workload

FORMAT_VERSION = 1

#: Rejection stages (the structured reason of an :class:`AdmissionDecision`).
STAGE_ADMITTED = "admitted"
STAGE_LOAD_SCREEN = "load-screen"   #: closed-form combined-load screens
STAGE_SOLVER = "solver"             #: joint cone program proven infeasible
#: The solver *failed* (as opposed to proving infeasibility) and the cold
#: from-scratch solve failed too.  The candidate is rolled back and the
#: running workload keeps its allocation — a structured outcome, never a
#: crash and never a silently wrong admit.
STAGE_ERROR = "error"

#: Anytime fast-path verdicts (delivered *before* the exact solve confirms).
VERDICT_ADMIT = "admit"
VERDICT_REJECT = "reject"
VERDICT_UNCERTAIN = "uncertain"

#: Anytime verdict stages (how the fast path reached its verdict).
STAGE_ANYTIME_EMPTY = "anytime-empty"       #: nothing running, nothing committed
STAGE_ANYTIME_FIT = "anytime-fit"           #: candidate fits the residual slack
STAGE_ANYTIME_PRICE = "anytime-price"       #: priced-out on a tight shared row
STAGE_ANYTIME_UNCERTAIN = "anytime-uncertain"


@dataclass
class AdmissionDecision:
    """The structured outcome of one admission attempt.

    ``stage`` distinguishes *why* a rejection happened: the closed-form
    combined-load screens (:data:`STAGE_LOAD_SCREEN` — the candidate cannot
    fit no matter what the solver does) or solver-proven infeasibility of the
    joint program (:data:`STAGE_SOLVER`).  ``mapped`` carries the platform's
    fresh allocation when the application was admitted.

    ``verdict`` / ``verdict_stage`` record the *anytime fast path*: a cheap
    admit/reject prediction from the running allocation's residual slack and
    shared-capacity prices, delivered before the exact solve ran (see
    :meth:`AdmissionController.anytime_verdict`).  The final ``admitted``
    flag always comes from the exact solve; the verdict is the answer a
    caller could have acted on while the confirmation was still running.
    """

    application: str
    admitted: bool
    stage: str
    reason: Optional[str] = None
    mapped: Optional[MappedWorkload] = None
    verdict: Optional[str] = None
    verdict_stage: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "application": self.application,
            "admitted": self.admitted,
            "stage": self.stage,
            "reason": self.reason,
            "verdict": self.verdict,
            "verdict_stage": self.verdict_stage,
        }


class AdmissionController:
    """Run-time admission control over one shared platform.

    The controller owns the running :class:`~repro.taskgraph.workload.
    Workload` and a single :class:`~repro.core.allocator.AllocationSession`;
    arrivals and departures rebuild the session's program for the new
    membership, and each rebuilt program is solved from its own start.
    """

    def __init__(
        self,
        platform: Platform,
        allocator: Optional[JointAllocator] = None,
        weights: Optional[ObjectiveWeights] = None,
        name: str = "running",
        workload: Optional[Workload] = None,
    ) -> None:
        """Open a controller over ``platform``, empty or pre-loaded.

        ``workload`` optionally seeds the controller with an already-running
        workload: its applications are taken over as admitted in **one**
        joint solve (instead of re-answering one admission question per
        application), which is what ``repro-map admit`` does with the
        workload JSON it is given.  Raises
        :class:`~repro.exceptions.InfeasibleProblemError` (or the validation
        errors of :meth:`Workload.validate`) when the seeded workload is not
        allocatable — a running workload must be feasible to ask admission
        questions against.

        When a joint solve *fails* (a numerical blow-up, not proven
        infeasibility), the controller solves the workload once more from
        scratch (see :meth:`_resilient_allocate`); only when that fails too
        does :meth:`admit` return a :data:`STAGE_ERROR` decision with the
        running workload untouched.
        """
        self.platform = platform
        # Admission decisions are made per event at run time: keep the
        # analytical verification but skip the (slow) self-timed simulation
        # unless the caller supplies their own allocator.
        self.allocator = allocator or JointAllocator(
            weights=weights, options=AllocatorOptions(run_simulation=False)
        )
        self.mapped: Optional[MappedWorkload] = None
        self._session: Optional[AllocationSession] = None
        self._stats: Optional[object] = None
        if workload is None:
            self.workload = Workload(platform, name=name)
            return
        if workload.platform is not platform:
            raise ModelError(
                f"the seed workload {workload.name!r} lives on platform "
                f"{workload.platform.name!r}, not on the controller's "
                f"platform {platform.name!r}"
            )
        self.workload = workload
        if len(workload):
            self._session = self.allocator.workload_session(workload)
            self._stats = self._session.stats
            self.mapped = self._session.allocate()

    # -- state ------------------------------------------------------------------
    @property
    def running(self) -> List[str]:
        """Names of the currently admitted applications."""
        return self.workload.application_names

    @property
    def session_stats(self):
        """Aggregate solve statistics across every admission event so far."""
        return self._stats

    # -- events -----------------------------------------------------------------
    def admit(self, name: str, configuration: Configuration) -> AdmissionDecision:
        """Attempt to admit one application alongside the running workload.

        On success the application is committed and the returned decision
        carries the fresh joint allocation; on rejection the running workload
        (and its session state) is left exactly as it was.

        Before the exact (incremental joint) solve runs, the *anytime fast
        path* produces a verdict from the committed state of the running
        allocation (:meth:`anytime_verdict`); it is recorded on the decision
        together with its stage, and the agreement with the exact outcome is
        published to the metrics registry.
        """
        with obs_span("admit", application=name) as admit_span:
            verdict, verdict_stage = self.anytime_verdict(name, configuration)
            decision = self._admit(name, configuration)
            decision.verdict = verdict
            decision.verdict_stage = verdict_stage
            admit_span.set(
                admitted=decision.admitted,
                stage=decision.stage,
                verdict=verdict,
                verdict_stage=verdict_stage,
            )
        self._record_decision(decision, admit_span.seconds)
        return decision

    def anytime_verdict(
        self, name: str, configuration: Configuration
    ) -> Tuple[str, str]:
        """Fast admit/reject prediction before the exact solve confirms.

        The anytime fast path answers the admission question from the
        committed allocation and the final barrier rung of the previous joint
        solve, without touching the running session:

        1. The committed allocation's *residual slack* on every shared
           capacity row is computed (``capacity − committed usage``).
        2. The candidate is checked **standalone** against those residuals:
           its own single-application cone program with the shared
           ``processor[...]`` / ``memory[...]`` rows tightened by the
           committed usage.  Only the barrier solver's phase I runs
           (:meth:`~repro.solver.barrier.BarrierSolver.feasible_point`); no
           optimum is computed.  The strictly feasible point it returns is
           the certificate: Constraints (9)/(10) pre-charge the rounding,
           so the point rounds to a valid allocation of the residual
           capacity, and the joint program is feasible with the running
           applications keeping their committed allocation untouched.  The
           verdict is :data:`VERDICT_ADMIT` (:data:`STAGE_ANYTIME_FIT`).
        3. When the candidate does *not* fit the residuals, the
           shared-capacity **prices** — ``1/(t_final · slack)`` per row from
           the previous joint solve's final barrier rung — arbitrate: if
           every row the candidate is short on is priced tight (the running
           workload is already pressed against it, so the joint solve has no
           slack to reclaim), the verdict is
           :data:`VERDICT_REJECT` (:data:`STAGE_ANYTIME_PRICE`); otherwise
           the fast path abstains with :data:`VERDICT_UNCERTAIN`.

        An admit verdict is exact (a feasible joint point is exhibited); a
        reject verdict is a price-guided prediction that the exact solve
        confirms.  With nothing running there is nothing committed and the
        verdict is :data:`VERDICT_UNCERTAIN` (:data:`STAGE_ANYTIME_EMPTY`).
        """
        if self.mapped is None or self._session is None:
            return (VERDICT_UNCERTAIN, STAGE_ANYTIME_EMPTY)
        with obs_span("anytime-verdict", application=name) as verdict_span:
            try:
                verdict, stage = self._residual_verdict(configuration)
            except Exception:  # noqa: BLE001 - the fast path never blocks admit
                verdict, stage = (VERDICT_UNCERTAIN, STAGE_ANYTIME_UNCERTAIN)
            verdict_span.set(verdict=verdict, stage=stage)
        registry = _metrics_registry()
        if registry.enabled:
            registry.counter(f"admission.anytime.{verdict}").inc()
        return (verdict, stage)

    def _residual_verdict(self, configuration: Configuration) -> Tuple[str, str]:
        """The standalone-against-residuals check behind :meth:`anytime_verdict`."""
        from repro.core.formulation import SocpFormulation
        from repro.solver.barrier import BarrierSolver

        committed = self._committed_usage()
        formulation = SocpFormulation(configuration, weights=self.allocator.weights)
        compiled = formulation.build().compile()
        shortfall_rows = []
        for index, row_name in enumerate(compiled.inequality_names):
            used = committed.get(row_name)
            if used is None:
                continue
            compiled.h[index] -= used
            if compiled.h[index] < 0.0:
                shortfall_rows.append(row_name)
        # Phase I alone answers the question: Constraints (9)/(10) pre-charge
        # the rounding, so any strictly feasible point of the tightened
        # program rounds to a valid allocation of the residual capacity.
        point = BarrierSolver().feasible_point(
            compiled,
            initial_point=compiled.vector_from_mapping(formulation.initial_point()),
        )
        if point is not None:
            return (VERDICT_ADMIT, STAGE_ANYTIME_FIT)
        priced = self._shared_prices(committed)
        if priced is None:
            return (VERDICT_UNCERTAIN, STAGE_ANYTIME_UNCERTAIN)
        prices, tight_price = priced
        # The candidate does not fit the residual slack.  The joint solve can
        # still admit it by shifting running applications away from the rows
        # the candidate needs — unless those rows are priced tight, i.e. the
        # running workload is already pressed against them.
        candidate_rows = set(compiled.inequality_names) & set(committed)
        contended = shortfall_rows or sorted(candidate_rows)
        if contended and all(
            prices.get(row, 0.0) >= tight_price for row in contended
        ):
            return (VERDICT_REJECT, STAGE_ANYTIME_PRICE)
        return (VERDICT_UNCERTAIN, STAGE_ANYTIME_UNCERTAIN)

    def _committed_usage(self) -> Dict[str, float]:
        """Committed usage of every shared capacity row, keyed by row name.

        Uses the joint program's own row arithmetic: a task charges its
        *relaxed* budget plus one granule of rounding slack (the constant the
        shared processor row carries per task, cf. Constraint (9)), so the
        residual left for a candidate is exactly what the joint row has to
        give.  Memories charge the rounded (committed) storage.
        """
        usage: Dict[str, float] = {}
        for processor_name in self.platform.processors:
            usage[f"processor[{processor_name}]"] = 0.0
        for application in self.mapped.applications.values():
            configuration = application.configuration
            for graph in configuration.task_graphs:
                for task in graph.tasks:
                    row = f"processor[{task.processor}]"
                    usage[row] += (
                        application.relaxed_budgets[task.name]
                        + configuration.granularity
                    )
        for memory_name, memory in self.platform.memories.items():
            if memory.is_bounded:
                usage[f"memory[{memory_name}]"] = self.mapped.total_storage(
                    memory_name
                )
        return usage

    def _shared_prices(
        self, committed: Mapping[str, float]
    ) -> Optional[Tuple[Dict[str, float], float]]:
        """Shared-capacity prices from the previous joint solve.

        At the final barrier rung ``t`` the multiplier of an inequality row
        with slack ``s`` is ``1/(t·s)``, the row's Lagrange multiplier on the
        central path.  Returns the per-row prices (scaled by each row's
        capacity, so they are comparable across rows) together with the
        *tight-price* threshold: the price of a reference row holding 1%
        relative slack.  A row priced at or above it sits essentially on its
        capacity at the committed optimum.  ``committed`` is the
        :meth:`_committed_usage` the caller already computed.
        """
        stats = (self.mapped.solver_info or {}).get("solve_stats", {})
        final_barrier = stats.get("final_barrier")
        if not final_barrier:
            return None
        prices: Dict[str, float] = {}
        for processor_name, processor in self.platform.processors.items():
            row = f"processor[{processor_name}]"
            capacity = processor.replenishment_interval
            slack = capacity - processor.scheduling_overhead - committed[row]
            prices[row] = self._row_price(capacity, slack, float(final_barrier))
        for memory_name, memory in self.platform.memories.items():
            if not memory.is_bounded:
                continue
            row = f"memory[{memory_name}]"
            slack = memory.capacity - committed[row]
            prices[row] = self._row_price(
                float(memory.capacity), slack, float(final_barrier)
            )
        tight_price = 100.0 / float(final_barrier)
        return (prices, tight_price)

    @staticmethod
    def _row_price(capacity: float, slack: float, final_barrier: float) -> float:
        if slack <= 0.0:
            return float("inf")
        return max(capacity, 1.0) / (final_barrier * slack)

    #: Solver failures worth a from-scratch solve: numerical breakdowns (and
    #: the injected faults that stand in for them under chaos testing).
    #: Definite verdicts — infeasibility, unboundedness — are *not* here: a
    #: deterministic answer must never be re-asked.
    _RETRYABLE = (NumericalError, FaultInjected, FloatingPointError, ArithmeticError)

    def _resilient_allocate(self, session: AllocationSession) -> MappedWorkload:
        """``session.allocate()`` with one rescue: a from-scratch solve.

        A retryable solver failure solves the same workload once more through
        the one-shot path: a fresh formulation and compile, the backend
        dispatcher's own scipy fallback included.  Nothing the session keeps
        (its compiled unlimited program and that program's cached kernel
        layout) reaches the rescue, so a fault in that state, or a transient
        one, does not repeat.  It is counted as ``reliability.fallbacks``;
        whatever it raises propagates to the caller, which turns it into a
        structured outcome.
        """
        import numpy as np

        from repro.reliability.faults import maybe_fail

        try:
            maybe_fail("admission.solve")
            return session.allocate()
        except self._RETRYABLE + (np.linalg.LinAlgError,):
            registry = _metrics_registry()
            if registry.enabled:
                registry.counter("reliability.fallbacks").inc()
            maybe_fail("admission.solve", label="fallback")
            return self.allocator.allocate_workload(self.workload)

    def _admit(self, name: str, configuration: Configuration) -> AdmissionDecision:
        if self._session is None:
            return self._admit_first(name, configuration)
        try:
            self._session.add_application(name, configuration)
        except InfeasibleModelError as error:
            return AdmissionDecision(name, False, STAGE_LOAD_SCREEN, reason=str(error))
        except (BindingError, ModelError) as error:
            # Structural impossibilities (unknown processors/memories,
            # duplicate or malformed names) are definite load-screen verdicts
            # too — the solver could never change them.
            return AdmissionDecision(name, False, STAGE_LOAD_SCREEN, reason=str(error))
        try:
            mapped = self._resilient_allocate(self._session)
        except (InfeasibleProblemError, AllocationError) as error:
            self._session.remove_application(name)
            return AdmissionDecision(name, False, STAGE_SOLVER, reason=str(error))
        except Exception as error:  # noqa: BLE001 - from-scratch solve failed too
            # The solver failed (it did not prove anything) and the cold
            # from-scratch solve failed too: a structured error verdict, with
            # the candidate rolled back and the running allocation untouched.
            self._session.remove_application(name)
            return AdmissionDecision(
                name,
                False,
                STAGE_ERROR,
                reason=f"{type(error).__name__}: {error}",
            )
        except BaseException:
            # KeyboardInterrupt / SystemExit propagate — but never with the
            # candidate left inside the running workload.
            self._session.remove_application(name)
            raise
        self.mapped = mapped
        return AdmissionDecision(name, True, STAGE_ADMITTED, mapped=mapped)

    def _admit_first(self, name: str, configuration: Configuration) -> AdmissionDecision:
        """Admission of the first application opens the session."""
        try:
            self.workload.add_application(name, configuration)
        except (BindingError, ModelError) as error:
            return AdmissionDecision(name, False, STAGE_LOAD_SCREEN, reason=str(error))
        try:
            self.workload.validate()
        except InfeasibleModelError as error:
            self.workload.remove_application(name)
            return AdmissionDecision(name, False, STAGE_LOAD_SCREEN, reason=str(error))
        try:
            session = self.allocator.workload_session(self.workload)
            if self._stats is not None:
                # Keep one aggregate across empty-platform gaps: the new
                # session continues the predecessor's statistics.
                session._adopt_stats(self._stats)
            mapped = self._resilient_allocate(session)
        except (InfeasibleProblemError, AllocationError) as error:
            self.workload.remove_application(name)
            return AdmissionDecision(name, False, STAGE_SOLVER, reason=str(error))
        except Exception as error:  # noqa: BLE001 - from-scratch solve failed too
            self.workload.remove_application(name)
            return AdmissionDecision(
                name,
                False,
                STAGE_ERROR,
                reason=f"{type(error).__name__}: {error}",
            )
        except BaseException:
            # Non-verdict failures propagate, with the workload restored.
            self.workload.remove_application(name)
            raise
        self._session = session
        self._stats = session.stats
        self.mapped = mapped
        return AdmissionDecision(name, True, STAGE_ADMITTED, mapped=mapped)

    def depart(self, name: str) -> Optional[MappedWorkload]:
        """Retire one running application and re-allocate the remainder.

        Returns the remaining workload's fresh allocation, or ``None`` when
        the departing application was the last one (the session closes; the
        accumulated statistics stay readable through :attr:`session_stats`).
        """
        if self._session is None:
            raise ModelError(f"no application named {name!r} is running")
        with obs_span("depart", application=name):
            if len(self.workload) == 1:
                self.workload.remove_application(name)
                self._session = None
                self.mapped = None
            else:
                self._session.remove_application(name)
                self.mapped = self._resilient_allocate(self._session)
        registry = _metrics_registry()
        if registry.enabled:
            registry.counter("admission.departures").inc()
            registry.gauge("admission.running").set(len(self.workload))
        return self.mapped

    @classmethod
    def restore(
        cls,
        snapshot: Optional[object],
        journal: object,
        allocator: Optional[JointAllocator] = None,
    ) -> Tuple["AdmissionController", List["TraceRecord"]]:
        """Rebuild a controller from a session snapshot plus its journal.

        ``snapshot`` is a :class:`repro.reliability.snapshot.SessionSnapshot`
        or a path to one (``None`` replays the whole journal from scratch);
        ``journal`` is a path to — or the read contents of — the run's
        durable journal.  Only journal events *after* the snapshot's sequence
        number are re-solved; the restored controller's committed workload
        is exactly the uninterrupted run's.  Returns the controller
        together with the full per-event record timeline (recorded outcomes
        for snapshot-covered events, recomputed ones for the replayed tail).
        """
        from repro.reliability.snapshot import restore_controller

        return restore_controller(journal, snapshot, allocator=allocator)

    def _record_decision(self, decision: AdmissionDecision, seconds: float) -> None:
        """Publish one admission verdict to the metrics registry."""
        registry = _metrics_registry()
        if not registry.enabled:
            return
        if decision.admitted:
            registry.counter("admission.admitted").inc()
        else:
            registry.counter("admission.rejected").inc()
            registry.counter(f"admission.rejected.{decision.stage}").inc()
        registry.histogram("admission.decision_seconds").observe(seconds)
        registry.gauge("admission.running").set(len(self.workload))


# -- traces ------------------------------------------------------------------------
ACTION_ARRIVE = "arrive"
ACTION_DEPART = "depart"


@dataclass(frozen=True)
class TraceEvent:
    """One arrival or departure of an admission trace."""

    action: str
    application: str
    configuration: Optional[Configuration] = None

    def __post_init__(self) -> None:
        if self.action not in (ACTION_ARRIVE, ACTION_DEPART):
            raise ModelError(
                f"unknown trace action {self.action!r}; expected "
                f"{ACTION_ARRIVE!r} or {ACTION_DEPART!r}"
            )
        if self.action == ACTION_ARRIVE and self.configuration is None:
            raise ModelError(
                f"arrival of {self.application!r} needs a configuration"
            )


@dataclass
class AdmissionTrace:
    """A replayable arrival/departure event sequence over one shared platform."""

    platform: Platform
    events: List[TraceEvent] = field(default_factory=list)
    name: str = "trace"

    def arrive(self, application: str, configuration: Configuration) -> "AdmissionTrace":
        self.events.append(TraceEvent(ACTION_ARRIVE, application, configuration))
        return self

    def depart(self, application: str) -> "AdmissionTrace":
        self.events.append(TraceEvent(ACTION_DEPART, application))
        return self

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class TraceRecord:
    """The outcome of one replayed trace event."""

    index: int
    action: str
    application: str
    status: str                     #: admitted / rejected / departed / ignored
    stage: Optional[str] = None     #: rejection stage for rejected arrivals
    reason: Optional[str] = None
    objective_value: Optional[float] = None   #: platform objective after the event
    running: List[str] = field(default_factory=list)
    verdict: Optional[str] = None           #: anytime fast-path verdict (arrivals)
    verdict_stage: Optional[str] = None     #: how the fast path decided

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "action": self.action,
            "application": self.application,
            "status": self.status,
            "stage": self.stage,
            "reason": self.reason,
            "objective_value": self.objective_value,
            "running": list(self.running),
            "verdict": self.verdict,
            "verdict_stage": self.verdict_stage,
        }


#: Replay record statuses.
STATUS_ADMITTED = "admitted"
STATUS_REJECTED = "rejected"
STATUS_DEPARTED = "departed"
STATUS_IGNORED = "ignored"   #: departure of an application that is not running
STATUS_ERROR = "error"       #: arrival ending in a :data:`STAGE_ERROR` decision


@dataclass
class TraceResult:
    """The timeline of one trace replay plus the final platform state."""

    trace: AdmissionTrace
    records: List[TraceRecord]
    final_mapped: Optional[MappedWorkload]
    solver_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def admitted(self) -> int:
        return sum(1 for record in self.records if record.status == STATUS_ADMITTED)

    @property
    def rejected(self) -> int:
        return sum(1 for record in self.records if record.status == STATUS_REJECTED)

    @property
    def departed(self) -> int:
        return sum(1 for record in self.records if record.status == STATUS_DEPARTED)

    def rows(self) -> List[Dict[str, object]]:
        """One table row per event (for the CLI and reports)."""
        return [
            {
                "event": record.index,
                "action": record.action,
                "application": record.application,
                "status": record.status,
                "stage": record.stage or "",
                "verdict": record.verdict or "",
                "running": len(record.running),
                "objective": (
                    None
                    if record.objective_value is None
                    else round(record.objective_value, 4)
                ),
            }
            for record in self.records
        ]


def apply_trace_event(
    controller: AdmissionController, index: int, event: TraceEvent
) -> TraceRecord:
    """Apply one trace event to a controller and record its outcome.

    The single definition of the event-to-record mapping, shared by
    :func:`replay_trace` and the durable replay of
    :mod:`repro.reliability.snapshot` — both paths must produce identical
    records for the kill-and-restore equivalence contract to be checkable.
    A departure of an application that is not running is recorded as
    ``ignored`` rather than raising — traces may legitimately contain
    departures of applications that were rejected on arrival.
    """
    if event.action == ACTION_ARRIVE:
        decision = controller.admit(event.application, event.configuration)
        if decision.admitted:
            status, stage = STATUS_ADMITTED, None
        elif decision.stage == STAGE_ERROR:
            status, stage = STATUS_ERROR, decision.stage
        else:
            status, stage = STATUS_REJECTED, decision.stage
        return TraceRecord(
            index=index,
            action=event.action,
            application=event.application,
            status=status,
            stage=stage,
            reason=decision.reason,
            verdict=decision.verdict,
            verdict_stage=decision.verdict_stage,
            objective_value=(
                None
                if controller.mapped is None
                else controller.mapped.objective_value
            ),
            running=controller.running,
        )
    if event.application not in controller.running:
        return TraceRecord(
            index=index,
            action=event.action,
            application=event.application,
            status=STATUS_IGNORED,
            reason="application is not running",
            objective_value=(
                None
                if controller.mapped is None
                else controller.mapped.objective_value
            ),
            running=controller.running,
        )
    mapped = controller.depart(event.application)
    return TraceRecord(
        index=index,
        action=event.action,
        application=event.application,
        status=STATUS_DEPARTED,
        objective_value=None if mapped is None else mapped.objective_value,
        running=controller.running,
    )


def replay_trace(
    trace: AdmissionTrace,
    allocator: Optional[JointAllocator] = None,
    controller: Optional[AdmissionController] = None,
) -> TraceResult:
    """Drive an :class:`AdmissionController` through a trace, event by event.

    Every event is an incremental session edit; the result records each
    event's verdict (with the structured rejection stage), the running set
    and the platform objective after the event.  A departure of an
    application that is not running is recorded as ``ignored`` rather than
    aborting the replay — traces may legitimately contain departures of
    applications that were rejected on arrival.
    """
    controller = controller or AdmissionController(trace.platform, allocator=allocator)
    records: List[TraceRecord] = []
    for index, event in enumerate(trace.events):
        records.append(apply_trace_event(controller, index, event))
    stats = controller.session_stats
    return TraceResult(
        trace=trace,
        records=records,
        final_mapped=controller.mapped,
        solver_stats=dict(stats.as_dict()) if stats is not None else {},
    )


# -- (de)serialisation -------------------------------------------------------------
def trace_to_dict(trace: AdmissionTrace) -> Dict[str, object]:
    from repro.taskgraph import serialization

    events: List[Dict[str, object]] = []
    for event in trace.events:
        data: Dict[str, object] = {
            "action": event.action,
            "application": event.application,
        }
        if event.configuration is not None:
            data["configuration"] = serialization.configuration_to_dict(
                event.configuration
            )
        events.append(data)
    return {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "platform": serialization.platform_to_dict(trace.platform),
        "events": events,
    }


def trace_from_dict(data: Mapping[str, object]) -> AdmissionTrace:
    from repro.taskgraph import serialization

    serialization.check_format_version(data, FORMAT_VERSION, FORMAT_VERSION, "trace")
    try:
        platform = serialization.platform_from_dict(data["platform"])
    except KeyError:
        raise ModelError("a trace document needs a 'platform' object") from None
    trace = AdmissionTrace(
        platform=platform,
        name=serialization._name(data.get("name", "trace"), "trace name"),
    )
    for event_data in serialization._list(data.get("events", []), "events"):
        event_data = serialization._object(event_data, "trace event")
        action = serialization._name(
            serialization._required(event_data, "action", "trace event"), "action"
        )
        application = serialization._name(
            serialization._required(event_data, "application", "trace event"),
            "application",
        )
        configuration = None
        if event_data.get("configuration") is not None:
            configuration = serialization.configuration_from_dict(
                event_data["configuration"]
            )
        trace.events.append(TraceEvent(action, application, configuration))
    return trace


def trace_to_json(trace: AdmissionTrace, indent: int = 2) -> str:
    return json.dumps(trace_to_dict(trace), indent=indent, sort_keys=True)


def trace_from_json(text: str) -> AdmissionTrace:
    from repro.taskgraph import serialization

    return trace_from_dict(serialization.parse_json(text, "trace"))


def save_trace(trace: AdmissionTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(trace_to_json(trace), encoding="utf-8")


def load_trace(path: Union[str, Path]) -> AdmissionTrace:
    return trace_from_json(Path(path).read_text(encoding="utf-8"))


# -- generators --------------------------------------------------------------------
def random_trace(
    event_count: int = 12,
    task_count: int = 4,
    processor_count: int = 4,
    seed: int = 0,
    period: float = 10.0,
    replenishment_interval: float = 40.0,
    wcet_range: Optional[Tuple[float, float]] = None,
    arrival_bias: float = 0.65,
    concurrency: int = 6,
    granularity: float = 1.0,
    name: Optional[str] = None,
) -> AdmissionTrace:
    """A seeded arrival/departure trace of random-DAG applications.

    Events arrive with probability ``arrival_bias`` (forced while nothing is
    running, suppressed once ``concurrency`` applications are live);
    departures pick a running application uniformly.  The default WCET range
    is scaled down by ``concurrency`` so that mid-trace workloads tend to be
    admissible, with heavier arrivals occasionally rejected — exactly the
    mixture an admission controller is for.
    """
    from repro.taskgraph.generators import random_dag_configuration

    if event_count < 1:
        raise ModelError("a trace needs at least one event")
    if wcet_range is None:
        wcet_range = (0.5 / concurrency, 2.5 / concurrency)
    rng = random.Random(f"trace:{seed}")
    platform: Optional[Platform] = None
    trace: Optional[AdmissionTrace] = None
    running: List[str] = []
    arrivals = 0
    for index in range(event_count):
        arrive = rng.random() < arrival_bias
        if not running:
            arrive = True
        elif len(running) >= concurrency:
            arrive = False
        if arrive:
            configuration = random_dag_configuration(
                task_count=task_count,
                processor_count=processor_count,
                seed=rng.randrange(2**31),
                period=period,
                replenishment_interval=replenishment_interval,
                wcet_range=wcet_range,
                granularity=granularity,
            )
            if trace is None:
                platform = configuration.platform
                trace = AdmissionTrace(
                    platform=platform,
                    name=name or f"random-trace-{event_count}-{seed}",
                )
            application = f"app{arrivals}"
            arrivals += 1
            trace.arrive(application, configuration)
            running.append(application)
        else:
            application = running.pop(rng.randrange(len(running)))
            trace.depart(application)
    return trace
