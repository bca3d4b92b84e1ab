"""Tests of dynamic workloads: incremental session editing and admission control.

The lock-in guarantees of the run-time layer:

* every ``add_application`` / ``remove_application`` / ``replace_application``
  event on a :class:`AllocationSession` matches a from-scratch
  ``allocate_workload`` rebuild within 1e-6 (budgets, capacities, objective);
* :class:`AdmissionController` admits/rejects with structured reasons
  (load-screen vs solver-infeasible) and leaves the running workload intact
  on every rejection;
* every firm anytime verdict (admit/reject before the exact solve) agrees
  with the exact solve's outcome, and the verdict's phase-I-only check
  gives the verdict a full solve of the same residual program would give,
  without any phase-II Newton iterations;
* traces replay deterministically and round-trip through JSON, including as
  batch-campaign ``trace`` entries.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core import (
    AdmissionController,
    AllocatorOptions,
    JointAllocator,
    random_trace,
    replay_trace,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)
from repro.core.admission import (
    STAGE_LOAD_SCREEN,
    STAGE_SOLVER,
    VERDICT_ADMIT,
    VERDICT_REJECT,
    VERDICT_UNCERTAIN,
    AdmissionTrace,
    TraceEvent,
)
from repro import obs
from repro.core.formulation import SocpFormulation
from repro.exceptions import InfeasibleModelError, ModelError
from repro.solver import SolverStatus
from repro.solver.backends import solve_compiled
from repro.taskgraph import ConfigurationBuilder, Workload, random_workload
from repro.taskgraph.generators import chain_configuration, random_dag_configuration


def options() -> AllocatorOptions:
    return AllocatorOptions(verify=False, run_simulation=False)


def pinned_pipeline(name: str, wcet: float = 1.0, period: float = 10.0, pin: float = 6.0):
    """A two-stage pipeline whose first task's budget is pinned exactly.

    Compilation substitutes the pinned budget out of every application
    block, so incremental session edits must carry that substitution through
    each re-compile.
    """
    return (
        ConfigurationBuilder(name=name, granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .memory("m1")
        .task_graph(name, period=period)
        .task(f"{name}_in", wcet=wcet, processor="p1", min_budget=pin, max_budget=pin)
        .task(f"{name}_out", wcet=wcet, processor="p2")
        .buffer(f"{name}_b", source=f"{name}_in", target=f"{name}_out", memory="m1")
        .build()
    )


def reference_allocation(workload: Workload):
    """A from-scratch rebuild of the session workload's current membership."""
    rebuilt = Workload(workload.platform, name="reference")
    for application in workload.applications:
        rebuilt.add_application(application.name, application.configuration)
    return JointAllocator(options=options()).allocate_workload(rebuilt)


def assert_matches_rebuild(mapped, reference):
    """Budgets, capacities and objective equal within 1e-6, per application."""
    assert set(mapped.applications) == set(reference.applications)
    assert mapped.objective_value == pytest.approx(
        reference.objective_value, abs=1e-6
    )
    for app_name, ref_app in reference.applications.items():
        app = mapped.application(app_name)
        assert app.buffer_capacities == ref_app.buffer_capacities
        for task_name, budget in ref_app.relaxed_budgets.items():
            assert app.relaxed_budgets[task_name] == pytest.approx(budget, abs=1e-6)
        for task_name, budget in ref_app.budgets.items():
            assert app.budgets[task_name] == pytest.approx(budget, abs=1e-6)
        for buffer_name, capacity in ref_app.relaxed_capacities.items():
            assert app.relaxed_capacities[buffer_name] == pytest.approx(
                capacity, abs=1e-6
            )


class TestWorkloadEditing:
    def test_remove_application_returns_and_forgets(self):
        video = pinned_pipeline("video")
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        workload.add_application("audio", pinned_pipeline("audio", pin=3.0))
        removed = workload.remove_application("video")
        assert removed.name == "video"
        assert workload.application_names == ["audio"]
        with pytest.raises(ModelError, match="video"):
            workload.remove_application("video")

    def test_replace_application_keeps_position(self):
        video = pinned_pipeline("video")
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        workload.add_application("audio", pinned_pipeline("audio", pin=3.0))
        previous = workload.replace_application("video", pinned_pipeline("video2"))
        assert previous.configuration is video
        assert workload.application_names == ["video", "audio"]
        assert workload.application("video").configuration.name == "video2"
        with pytest.raises(ModelError, match="ghost"):
            workload.replace_application("ghost", video)

    def test_rehomed_configuration_keeps_identity_on_shared_platform(self):
        video = pinned_pipeline("video")
        workload = Workload(video.platform, name="dyn")
        application = workload.add_application("video", video)
        assert application.configuration is video


class TestIncrementalSessionEquivalence:
    def test_every_event_matches_full_rebuild(self):
        """The acceptance lock-in: add/remove/replace events on a session
        equal a from-scratch ``allocate_workload`` within 1e-6."""
        video = pinned_pipeline("video", pin=6.0)
        allocator = JointAllocator(options=options())
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        workload.add_application("audio", pinned_pipeline("audio", wcet=0.8, pin=4.0))
        session = allocator.workload_session(workload)

        mapped = session.allocate()
        assert_matches_rebuild(mapped, reference_allocation(workload))

        events = [
            ("add", "pip", pinned_pipeline("pip", wcet=0.6, pin=5.0)),
            ("add", "game", pinned_pipeline("game", wcet=0.5, pin=3.0)),
            ("remove", "audio", None),
            ("replace", "pip", pinned_pipeline("pip2", wcet=0.7, pin=4.0)),
            ("add", "radio", pinned_pipeline("radio", wcet=0.4, pin=2.0)),
        ]
        for action, name, configuration in events:
            if action == "add":
                session.add_application(name, configuration)
            elif action == "remove":
                session.remove_application(name)
            else:
                session.replace_application(name, configuration)
            mapped = session.allocate()
            assert_matches_rebuild(mapped, reference_allocation(session.subject))

        assert session.stats.compiles == 1 + len(events)
        assert session.stats.warm_started >= len(events)

    def test_random_workload_events_match_rebuild(self):
        """Same equivalence on unpinned random DAGs (no equality rows)."""
        applications = [
            random_dag_configuration(
                task_count=4, processor_count=4, seed=7 + index, wcet_range=(0.2, 0.6)
            )
            for index in range(4)
        ]
        allocator = JointAllocator(options=options())
        workload = Workload(applications[0].platform, name="dyn")
        workload.add_application("a0", applications[0])
        workload.add_application("a1", applications[1])
        session = allocator.workload_session(workload)
        session.allocate()
        session.add_application("a2", applications[2])
        assert_matches_rebuild(
            session.allocate(), reference_allocation(session.subject)
        )
        session.remove_application("a1")
        assert_matches_rebuild(
            session.allocate(), reference_allocation(session.subject)
        )
        session.add_application("a3", applications[3])
        assert_matches_rebuild(
            session.allocate(), reference_allocation(session.subject)
        )

    def test_limits_still_work_after_an_edit(self):
        """Per-application limits apply to the incrementally rebuilt program."""
        video = chain_configuration(stages=2)
        allocator = JointAllocator(options=options())
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        session = allocator.workload_session(workload)
        session.allocate()
        session.add_application("audio", chain_configuration(stages=2, period=20.0))
        limited = session.allocate(capacity_limits={"video": {"bab": 2}})
        assert limited.application("video").buffer_capacities["bab"] <= 2

    def test_failed_add_rolls_back_workload_and_session(self):
        video = chain_configuration(stages=2)
        allocator = JointAllocator(options=options())
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        session = allocator.workload_session(workload)
        before = session.allocate()
        # A near-saturating pipeline overloads the shared processors: the
        # combined-load screen rejects the add and nothing changes.
        overload = chain_configuration(stages=2, period=1.1)
        with pytest.raises(InfeasibleModelError):
            session.add_application("x", overload)
        assert session.subject.application_names == ["video"]
        after = session.allocate()
        assert after.objective_value == pytest.approx(
            before.objective_value, abs=1e-9
        )

    def test_failed_rebind_rolls_back_membership_and_keeps_the_session(self, monkeypatch):
        """A failure while rebuilding the formulation (not just a screen
        rejection) must restore the previous membership — order included —
        and leave the old compiled program usable."""
        video = chain_configuration(stages=2)
        allocator = JointAllocator(options=options())
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        workload.add_application("audio", chain_configuration(stages=2, period=20.0))
        session = allocator.workload_session(workload)
        before = session.allocate()

        # Fail *after* the new formulation is built and compiled, while its
        # start point is computed: the membership has changed by then, which
        # is exactly the state the rollback must undo.
        def exploding_start(*args, **kwargs):
            raise RuntimeError("synthetic start-point failure")

        monkeypatch.setattr(SocpFormulation, "initial_point", exploding_start)
        with pytest.raises(RuntimeError, match="synthetic"):
            session.add_application("pip", chain_configuration(stages=2, period=15.0))
        assert session.subject.application_names == ["video", "audio"]
        with pytest.raises(RuntimeError, match="synthetic"):
            session.remove_application("audio")
        assert session.subject.application_names == ["video", "audio"]
        monkeypatch.undo()
        # The kept session must still solve and extract per-application
        # results against its original compiled problem.
        after = session.allocate()
        assert after.objective_value == pytest.approx(
            before.objective_value, abs=1e-9
        )
        assert set(after.application("video").budgets) == set(
            before.application("video").budgets
        )
        # And further edits still work.
        session.add_application("pip", chain_configuration(stages=2, period=15.0))
        assert_matches_rebuild(
            session.allocate(), reference_allocation(session.subject)
        )

    def test_removing_the_last_application_is_rejected(self):
        video = chain_configuration(stages=2)
        allocator = JointAllocator(options=options())
        workload = Workload(video.platform, name="dyn")
        workload.add_application("video", video)
        session = allocator.workload_session(workload)
        with pytest.raises(ModelError, match="at least one"):
            session.remove_application("video")


class TestAdmissionController:
    def test_admit_then_reject_solver_stage(self):
        """Jointly infeasible capacity caps pass the load screens but fail the
        solver: the rejection is stage 'solver' and the running workload keeps
        its allocation."""
        video = chain_configuration(stages=2, max_capacity=3)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        first = controller.admit("video", video)
        assert first.admitted and first.mapped is not None
        before = controller.mapped.objective_value
        second = controller.admit("audio", chain_configuration(stages=2, max_capacity=3))
        assert not second.admitted
        assert second.stage == STAGE_SOLVER
        assert second.reason
        assert controller.running == ["video"]
        assert controller.mapped.objective_value == pytest.approx(before, abs=1e-9)

    def test_reject_load_screen_stage(self):
        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted
        decision = controller.admit("heavy", chain_configuration(stages=2, period=1.1))
        assert not decision.admitted
        assert decision.stage == STAGE_LOAD_SCREEN
        assert "overloaded" in decision.reason
        assert controller.running == ["video"]

    def test_duplicate_name_is_a_structured_rejection(self):
        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted
        decision = controller.admit("video", chain_configuration(stages=2))
        assert not decision.admitted
        assert decision.stage == STAGE_LOAD_SCREEN
        assert "duplicate" in decision.reason

    def test_depart_to_empty_and_readmit_keeps_statistics(self):
        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted
        solves_before = controller.session_stats.solves
        assert controller.depart("video") is None
        assert controller.running == []
        assert controller.mapped is None
        # The aggregate survives the empty-platform gap.
        assert controller.admit("audio", chain_configuration(stages=2)).admitted
        assert controller.session_stats.solves == solves_before + 1

    def test_seeded_controller_takes_over_a_running_workload_in_one_solve(self):
        video = chain_configuration(stages=2)
        workload = Workload(video.platform, name="seeded")
        workload.add_application("video", video)
        workload.add_application("audio", chain_configuration(stages=2, period=20.0))
        controller = AdmissionController(
            video.platform,
            allocator=JointAllocator(options=options()),
            workload=workload,
        )
        assert sorted(controller.running) == ["audio", "video"]
        assert controller.mapped is not None
        assert controller.session_stats.solves == 1
        decision = controller.admit("pip", chain_configuration(stages=2, period=15.0))
        assert decision.admitted

    def test_seeded_controller_rejects_foreign_platform(self):
        video = chain_configuration(stages=2)
        other = chain_configuration(stages=2)
        workload = Workload(other.platform, name="foreign")
        workload.add_application("video", other)
        with pytest.raises(ModelError, match="platform"):
            AdmissionController(
                video.platform,
                allocator=JointAllocator(options=options()),
                workload=workload,
            )

    def test_solver_failure_degrades_to_a_structured_error_verdict(self, monkeypatch):
        """A persistent numerical failure is not an admission verdict and not a
        crash either: the degradation ladder (the from-scratch solve) runs
        out and the event ends in a structured ``error`` decision with
        the candidate rolled back out of the running workload."""
        from repro.core.admission import STAGE_ERROR
        from repro.core.allocator import JointAllocator as AllocatorClass
        from repro.core.allocator import AllocationSession
        from repro.exceptions import NumericalError

        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted

        session_allocate = AllocationSession.allocate
        workload_allocate = AllocatorClass.allocate_workload

        def exploding(self, *args, **kwargs):
            raise NumericalError("synthetic solver breakdown")

        # Break the incremental path and the from-scratch fallback alike so
        # the whole ladder is exhausted.
        monkeypatch.setattr(AllocationSession, "allocate", exploding)
        monkeypatch.setattr(AllocatorClass, "allocate_workload", exploding)
        decision = controller.admit(
            "audio", chain_configuration(stages=2, period=20.0)
        )
        assert not decision.admitted
        assert decision.stage == STAGE_ERROR
        assert "synthetic solver breakdown" in (decision.reason or "")
        monkeypatch.setattr(AllocationSession, "allocate", session_allocate)
        monkeypatch.setattr(AllocatorClass, "allocate_workload", workload_allocate)
        assert controller.running == ["video"]
        # The controller still works after the failure.
        assert controller.admit("audio", chain_configuration(stages=2, period=20.0)).admitted

    def test_transient_solver_failure_is_retried_and_admits(self, monkeypatch):
        """One numerical blow-up of the incremental solve is absorbed by the
        cold from-scratch solve: it runs exactly once and the candidate is
        admitted normally."""
        from repro.core.allocator import JointAllocator as AllocatorClass
        from repro.core.allocator import AllocationSession
        from repro.exceptions import NumericalError

        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted

        original = AllocationSession.allocate
        from_scratch = AllocatorClass.allocate_workload
        calls = {"n": 0, "from_scratch": 0}

        def flaky_allocate(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("transient blow-up")
            return original(self, *args, **kwargs)

        def counted_allocate_workload(self, *args, **kwargs):
            calls["from_scratch"] += 1
            return from_scratch(self, *args, **kwargs)

        monkeypatch.setattr(AllocationSession, "allocate", flaky_allocate)
        monkeypatch.setattr(
            AllocatorClass, "allocate_workload", counted_allocate_workload
        )
        decision = controller.admit(
            "audio", chain_configuration(stages=2, period=20.0)
        )
        assert decision.admitted
        assert calls == {"n": 1, "from_scratch": 1}
        assert sorted(controller.running) == ["audio", "video"]

    def test_depart_unknown_application_raises(self):
        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        with pytest.raises(ModelError):
            controller.depart("ghost")
        assert controller.admit("video", video).admitted
        with pytest.raises(ModelError, match="ghost"):
            controller.depart("ghost")

    def test_admitted_mapping_matches_full_rebuild(self):
        video = pinned_pipeline("video", pin=6.0)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        controller.admit("video", video)
        controller.admit("audio", pinned_pipeline("audio", wcet=0.8, pin=4.0))
        decision = controller.admit("pip", pinned_pipeline("pip", wcet=0.6, pin=5.0))
        assert decision.admitted
        workload = Workload(video.platform, name="check")
        for application in controller.workload.applications:
            workload.add_application(application.name, application.configuration)
        reference = JointAllocator(options=options()).allocate_workload(workload)
        assert_matches_rebuild(decision.mapped, reference)


class TestTraces:
    def test_trace_construction_validates_events(self):
        video = chain_configuration(stages=2)
        trace = AdmissionTrace(platform=video.platform)
        trace.arrive("video", video).depart("video")
        assert len(trace) == 2
        with pytest.raises(ModelError, match="needs a configuration"):
            TraceEvent("arrive", "x")
        with pytest.raises(ModelError, match="unknown trace action"):
            TraceEvent("explode", "x")

    def test_replay_records_the_timeline(self):
        video = chain_configuration(stages=2)
        trace = AdmissionTrace(platform=video.platform, name="tl")
        trace.arrive("video", video)
        trace.arrive("heavy", chain_configuration(stages=2, period=1.1))
        trace.depart("heavy")   # was rejected, so this is ignored
        trace.depart("video")
        result = replay_trace(trace, allocator=JointAllocator(options=options()))
        assert [record.status for record in result.records] == [
            "admitted",
            "rejected",
            "ignored",
            "departed",
        ]
        assert result.records[1].stage == STAGE_LOAD_SCREEN
        assert result.admitted == 1 and result.rejected == 1 and result.departed == 1
        assert result.final_mapped is None
        assert result.solver_stats["solves"] >= 1
        rows = result.rows()
        assert len(rows) == 4 and rows[0]["status"] == "admitted"

    def test_random_trace_is_deterministic_and_round_trips(self):
        trace = random_trace(event_count=9, seed=13)
        again = random_trace(event_count=9, seed=13)
        assert trace_to_dict(trace) == trace_to_dict(again)
        clone = trace_from_json(trace_to_json(trace))
        assert trace_to_dict(clone) == trace_to_dict(trace)
        allocator = JointAllocator(options=options())
        first = replay_trace(trace, allocator=allocator)
        second = replay_trace(clone, allocator=JointAllocator(options=options()))
        assert [r.status for r in first.records] == [r.status for r in second.records]
        for a, b in zip(first.records, second.records):
            if a.objective_value is None:
                assert b.objective_value is None
            else:
                assert math.isclose(
                    a.objective_value, b.objective_value, rel_tol=1e-9, abs_tol=1e-9
                )

    def test_random_trace_first_event_is_an_arrival(self):
        for seed in range(5):
            trace = random_trace(event_count=6, seed=seed)
            assert trace.events[0].action == "arrive"

    def test_incremental_replay_matches_rebuild_per_event(self):
        """Trace replay through the incremental session equals replaying every
        event with a from-scratch controller state (the 1e-6 lock-in, driven
        through the trace surface)."""
        trace = random_trace(event_count=8, seed=21, task_count=3)
        result = replay_trace(trace, allocator=JointAllocator(options=options()))
        # Rebuild per prefix: a fresh controller replayed over the first k
        # events must land on the same objective after event k.
        for k, record in enumerate(result.records):
            if record.objective_value is None:
                continue
            prefix = AdmissionTrace(
                platform=trace.platform, events=list(trace.events[: k + 1])
            )
            fresh = replay_trace(prefix, allocator=JointAllocator(options=options()))
            assert fresh.records[-1].objective_value == pytest.approx(
                record.objective_value, abs=1e-6
            )


class TestTraceCampaigns:
    def test_trace_entry_expands_and_solves(self, tmp_path):
        from repro.batch import CampaignSpec, run_campaign

        trace = random_trace(event_count=6, seed=3)
        spec = CampaignSpec.from_dict(
            {
                "name": "trace-smoke",
                "entries": [{"trace": trace_to_dict(trace)}],
            }
        )
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert [e.to_dict() for e in restored.entries] == [
            e.to_dict() for e in spec.entries
        ]
        items = spec.expand()
        assert [item.label for item in items] == [f"0:{trace.name}"]
        assert items[0].trace is not None
        results, summary = run_campaign(spec, cache_dir=tmp_path / "cache")
        result = results[0]
        assert result.status == "ok"
        assert len(result.stats["events"]) == len(trace)
        assert result.stats["admitted"] >= 1
        # A warm (cached) re-run reproduces the cold run.
        warm, _ = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert warm[0].from_cache is True
        assert warm[0].deterministic_dict() == result.deterministic_dict()

    def test_trace_path_entries_resolve_against_campaign_dir(self, tmp_path):
        from repro.batch import load_campaign
        from repro.core.admission import save_trace

        save_trace(random_trace(event_count=4, seed=5), tmp_path / "t.json")
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(
            json.dumps({"name": "by-path", "entries": [{"trace_path": "t.json"}]})
        )
        items = load_campaign(campaign_path).expand()
        assert len(items) == 1 and items[0].trace is not None

    def test_capacity_sweep_on_a_trace_is_rejected(self):
        from repro.batch import CampaignEntry

        trace = random_trace(event_count=4, seed=5)
        with pytest.raises(ModelError, match="does not apply to trace"):
            CampaignEntry.from_dict(
                {"trace": trace_to_dict(trace), "capacity_sweep": [2, 3]}
            )


class TestAdmitCommand:
    @pytest.fixture
    def workload_path(self, tmp_path):
        from repro.taskgraph.workload import save_workload

        video = chain_configuration(stages=2)
        workload = Workload(video.platform, name="duo")
        workload.add_application("video", video)
        workload.add_application("audio", chain_configuration(stages=2, period=20.0))
        path = tmp_path / "duo.json"
        save_workload(workload, path)
        return str(path)

    def test_admit_accepts_a_fitting_candidate(self, workload_path, tmp_path, capsys):
        from repro.cli import EXIT_OK, main
        from repro.taskgraph import serialization

        candidate = tmp_path / "candidate.json"
        serialization.save_configuration(
            chain_configuration(stages=2, period=15.0), candidate
        )
        exit_code = main(
            ["admit", workload_path, str(candidate), "--name", "pip", "--stats"]
        )
        output = capsys.readouterr().out
        assert exit_code == EXIT_OK
        assert "admitted 'pip'" in output
        assert "budget split" in output
        assert "solver statistics" in output

    def test_admit_rejects_an_overloading_candidate(
        self, workload_path, tmp_path, capsys
    ):
        from repro.cli import EXIT_INFEASIBLE, main
        from repro.taskgraph import serialization

        candidate = tmp_path / "candidate.json"
        serialization.save_configuration(
            chain_configuration(stages=2, period=1.1), candidate
        )
        exit_code = main(["admit", workload_path, str(candidate)])
        captured = capsys.readouterr()
        assert exit_code == EXIT_INFEASIBLE
        assert "rejected" in captured.err
        assert "load-screen" in captured.err

    def test_admit_replays_a_trace(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, main
        from repro.core.admission import save_trace

        trace_path = tmp_path / "trace.json"
        save_trace(random_trace(event_count=5, seed=1), trace_path)
        out_path = tmp_path / "results.json"
        exit_code = main(
            ["admit", "--trace", str(trace_path), "--output", str(out_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == EXIT_OK
        assert "admitted" in output
        payload = json.loads(out_path.read_text())
        assert len(payload["events"]) == 5

    def test_admit_without_arguments_is_a_usage_error(self, capsys):
        from repro.cli import EXIT_USAGE, main

        assert main(["admit"]) == EXIT_USAGE
        assert "candidate" in capsys.readouterr().err

    def test_admit_trace_and_workload_together_is_a_usage_error(
        self, workload_path, tmp_path, capsys
    ):
        from repro.cli import EXIT_USAGE, main
        from repro.core.admission import save_trace

        trace_path = tmp_path / "trace.json"
        save_trace(random_trace(event_count=3, seed=2), trace_path)
        assert (
            main(["admit", workload_path, workload_path, "--trace", str(trace_path)])
            == EXIT_USAGE
        )


class TestAnytimeAdmission:
    def test_replayed_trace_verdicts_agree_with_exact_solves(self):
        # A 12-event trace heavy enough to produce firm rejects: every firm
        # anytime verdict must agree with the exact solve's outcome.
        trace = random_trace(
            event_count=12, seed=12, wcet_range=(0.8, 2.4), concurrency=6
        )
        result = replay_trace(
            trace,
            allocator=JointAllocator(
                options=AllocatorOptions(verify=False, run_simulation=False)
            ),
        )
        firm = 0
        for record in result.records:
            if record.status not in ("admitted", "rejected"):
                continue
            assert record.verdict in (
                VERDICT_ADMIT,
                VERDICT_REJECT,
                VERDICT_UNCERTAIN,
            )
            if record.verdict == VERDICT_ADMIT:
                firm += 1
                assert record.status == "admitted", record.application
            elif record.verdict == VERDICT_REJECT:
                firm += 1
                assert record.status == "rejected", record.application
        assert firm > 0

    def test_first_arrival_verdict_is_uncertain_on_empty_platform(self):
        trace = random_trace(event_count=3, seed=0)
        result = replay_trace(
            trace,
            allocator=JointAllocator(
                options=AllocatorOptions(verify=False, run_simulation=False)
            ),
        )
        first = result.records[0]
        assert first.verdict == VERDICT_UNCERTAIN
        assert first.verdict_stage == "anytime-empty"

    def test_admit_decision_carries_verdict_fields(self):
        workload = random_workload(application_count=2, seed=0)
        platform = workload.platform
        controller = AdmissionController(
            platform,
            allocator=JointAllocator(
                options=AllocatorOptions(verify=False, run_simulation=False)
            ),
        )
        applications = list(workload.applications)
        first = controller.admit("a", applications[0].configuration)
        assert first.admitted
        assert first.verdict == VERDICT_UNCERTAIN  # nothing committed yet
        second = controller.admit("b", applications[1].configuration)
        assert second.verdict in (VERDICT_ADMIT, VERDICT_REJECT, VERDICT_UNCERTAIN)
        assert second.verdict_stage is not None
        payload = second.as_dict()
        assert "verdict" in payload and "verdict_stage" in payload


#: The heavy trace of the firm-verdict test: it has anytime-fit admits and an
#: anytime-price reject.
HEAVY_TRACE = dict(event_count=12, seed=12, wcet_range=(0.8, 2.4), concurrency=6)


def full_solve_verdict(controller, configuration):
    """The anytime verdict recomputed from a full barrier solve.

    Builds the same residual-tightened program as the controller, solves it
    to optimality with ``solve_compiled`` and reads the status; infeasible
    programs go to the controller's price arbitration.
    """
    committed = controller._committed_usage()
    formulation = SocpFormulation(configuration, weights=controller.allocator.weights)
    compiled = formulation.build().compile()
    shortfall = []
    for index, row in enumerate(compiled.inequality_names):
        if row in committed:
            compiled.h[index] -= committed[row]
            if compiled.h[index] < 0.0:
                shortfall.append(row)
    solution = solve_compiled(
        compiled, backend="barrier", initial_point=formulation.initial_point()
    )
    if solution.is_optimal:
        return (VERDICT_ADMIT, "anytime-fit")
    if solution.status is not SolverStatus.INFEASIBLE:
        return (VERDICT_UNCERTAIN, "anytime-uncertain")
    priced = controller._shared_prices(committed)
    if priced is None:
        return (VERDICT_UNCERTAIN, "anytime-uncertain")
    prices, tight_price = priced
    contended = shortfall or sorted(set(compiled.inequality_names) & set(committed))
    if contended and all(prices.get(row, 0.0) >= tight_price for row in contended):
        return (VERDICT_REJECT, "anytime-price")
    return (VERDICT_UNCERTAIN, "anytime-uncertain")


class TestPhaseOneVerdicts:
    def test_verdicts_add_no_phase_two_iterations(self):
        with obs.capture() as captured:
            result = replay_trace(
                random_trace(**HEAVY_TRACE),
                allocator=JointAllocator(options=options()),
            )
        verdicts = sum(
            record.verdict_stage not in (None, "anytime-empty")
            for record in result.records
        )
        assert verdicts > 0
        exact = result.solver_stats
        metrics = captured.metrics
        # Every verdict publishes its phase-I solve ...
        assert metrics["solver.solves"]["value"] == exact["solves"] + verdicts
        assert (
            metrics["solver.newton_iterations"]["count"]
            == exact["solves"] + verdicts
        )
        # ... but only the exact solves add phase-II Newton iterations.
        assert metrics["solver.newton_iterations"]["sum"] == exact["newton_iterations"]
        assert (
            metrics["solver.phase1_newton_iterations"]["sum"]
            > exact["phase1_newton_iterations"]
        )

    def test_verdicts_match_a_full_solve_of_the_residual_program(self, monkeypatch):
        pairs = []
        verdict_of = AdmissionController._residual_verdict

        def recording(controller, configuration):
            reference = full_solve_verdict(controller, configuration)
            verdict = verdict_of(controller, configuration)
            pairs.append((verdict, reference))
            return verdict

        monkeypatch.setattr(AdmissionController, "_residual_verdict", recording)
        replay_trace(
            random_trace(**HEAVY_TRACE), allocator=JointAllocator(options=options())
        )
        assert pairs
        assert all(verdict == reference for verdict, reference in pairs), pairs
        stages = {verdict[1] for verdict, _ in pairs}
        assert {"anytime-fit", "anytime-price"} <= stages
