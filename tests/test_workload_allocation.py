"""Tests of joint workload allocation: blocks, sessions, sweeps, batch.

The lock-in guarantees of the block-structured refactor:

* a 1-application workload solves to the *same* budgets and capacities as
  :meth:`JointAllocator.allocate` on the bare configuration (the 1-block
  special case is exact, within 1e-9);
* a multi-application workload shares each processor soundly (total budget
  within the replenishment interval) while every application meets its
  throughput constraint, verified through the independent dataflow analyses
  including self-timed simulation;
* a workload capacity sweep through a workload :class:`AllocationSession` matches the
  rebuild-per-point path within 1e-6.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AllocatorOptions,
    JointAllocator,
    SocpFormulation,
    TradeoffExplorer,
    WorkloadSocpFormulation,
    allocate_workload,
)
from repro.exceptions import FormulationError, InfeasibleProblemError
from repro.taskgraph import Workload
from repro.taskgraph.generators import (
    chain_configuration,
    producer_consumer_configuration,
)


def options(simulate: bool = False) -> AllocatorOptions:
    return AllocatorOptions(run_simulation=simulate)


def one_app_workload(configuration=None):
    configuration = configuration or producer_consumer_configuration()
    workload = Workload(configuration.platform, name="solo")
    workload.add_application("only", configuration)
    return workload


def two_app_workload():
    """Two pipelines competing for the same two processors."""
    video = chain_configuration(stages=2)
    audio = chain_configuration(stages=2, period=20.0)
    workload = Workload(video.platform, name="duo")
    workload.add_application("video", video)
    workload.add_application("audio", audio)
    return workload


class TestOneBlockEquivalence:
    def test_single_application_matches_plain_allocate(self):
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=options())
        single = allocator.allocate(configuration)
        mapped = allocator.allocate_workload(one_app_workload(configuration))
        app = mapped.application("only")
        assert set(app.budgets) == set(single.budgets)
        for task_name, budget in single.budgets.items():
            assert app.budgets[task_name] == pytest.approx(budget, abs=1e-9)
        for task_name, budget in single.relaxed_budgets.items():
            assert app.relaxed_budgets[task_name] == pytest.approx(budget, abs=1e-9)
        assert app.buffer_capacities == single.buffer_capacities
        for buffer_name, capacity in single.relaxed_capacities.items():
            assert app.relaxed_capacities[buffer_name] == pytest.approx(
                capacity, abs=1e-9
            )
        assert mapped.objective_value == pytest.approx(
            single.objective_value, abs=1e-9
        )
        # The per-application objective share equals the stand-alone optimum
        # in the 1-block case.
        assert app.objective_value == pytest.approx(single.objective_value, abs=1e-9)

    def test_one_block_program_is_structurally_identical(self):
        configuration = producer_consumer_configuration()
        single = SocpFormulation(configuration).build()
        joint = WorkloadSocpFormulation(one_app_workload(configuration)).build()
        assert len(joint.variables) == len(single.variables)
        joint_compiled, single_compiled = joint.compile(), single.compile()
        assert len(joint_compiled.inequality_names) == len(single_compiled.inequality_names)
        assert len(joint_compiled.hyperbolic) == len(single_compiled.hyperbolic)
        for joint_var, single_var in zip(joint.variables, single.variables):
            # Same bounds in the same order; names carry the app prefix.
            assert joint_var.lower == single_var.lower
            assert joint_var.upper == single_var.upper
            assert joint_var.name == single_var.name.replace("[", "[only/", 1)

    def test_capacity_limited_equivalence(self):
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=options())
        single = allocator.allocate(configuration, capacity_limits={"bab": 4})
        mapped = allocator.allocate_workload(
            one_app_workload(configuration),
            capacity_limits={"only": {"bab": 4}},
        )
        app = mapped.application("only")
        for task_name, budget in single.relaxed_budgets.items():
            assert app.relaxed_budgets[task_name] == pytest.approx(budget, abs=1e-9)
        assert app.buffer_capacities == single.buffer_capacities

    def test_session_sweep_matches_through_both_entry_points(self):
        # The Figure 2 capacity sweep through a configuration session and
        # through the one-application workload's session: the same program,
        # so the same rounded allocations and the same solver work.  The
        # first point (capacity 1, the buffer's smallest feasible capacity)
        # pins the variable.
        from repro.experiments import figure2

        configuration = figure2.build_configuration(None)
        allocator = JointAllocator(options=options())
        single = allocator.session(configuration)
        joint = allocator.workload_session(one_app_workload(configuration))
        for limit in figure2.DEFAULT_CAPACITY_SWEEP:
            mapped = single.allocate(capacity_limits={"bab": limit})
            app = joint.allocate(capacity_limits={"only": {"bab": limit}}).application(
                "only"
            )
            assert app.budgets == mapped.budgets
            assert app.buffer_capacities == mapped.buffer_capacities
        single_stats, joint_stats = single.stats.as_dict(), joint.stats.as_dict()
        single_stats.pop("solve_time")
        joint_stats.pop("solve_time")
        assert joint_stats == single_stats


class TestSharedPlatform:
    def test_two_applications_share_processor_capacity_soundly(self):
        workload = two_app_workload()
        mapped = JointAllocator(options=options(simulate=True)).allocate_workload(
            workload
        )
        for processor_name, processor in workload.platform.processors.items():
            split = mapped.budget_split(processor_name)
            assert set(split) == {"video", "audio"}
            total = mapped.total_budget(processor_name)
            assert total == pytest.approx(sum(split.values()))
            assert total + processor.scheduling_overhead <= (
                processor.replenishment_interval + 1e-9
            )
        # Both applications meet their throughput constraints: verification
        # (periodic schedule existence + self-timed simulation) passed, or
        # allocate_workload would have raised.
        assert "verified" in mapped.solver_info["verification"]
        # Per-application objective shares sum to the joint optimum.
        assert sum(
            app.objective_value for app in mapped.applications.values()
        ) == pytest.approx(mapped.objective_value, abs=1e-9)
        # The slower audio pipeline needs less budget than the video one.
        video_total = mapped.application("video").total_budget()
        audio_total = mapped.application("audio").total_budget()
        assert audio_total < video_total + 1e-9

    def test_budget_split_rows_survive_reserved_application_names(self):
        # Applications named like the table's meta columns must not clobber
        # them: per-app columns are namespaced as budget[<application>].
        workload = Workload(chain_configuration(stages=2).platform, name="tricky")
        workload.add_application("total", chain_configuration(stages=2))
        workload.add_application("processor", chain_configuration(stages=2, period=20.0))
        mapped = JointAllocator(options=options()).allocate_workload(workload)
        for row in mapped.budget_split_rows():
            assert isinstance(row["processor"], str)
            assert row["total"] == pytest.approx(
                row["budget[total]"] + row["budget[processor]"]
            )

    def test_namespacing_supports_identical_applications(self):
        workload = Workload(chain_configuration(stages=2).platform, name="twins")
        workload.add_application("left", chain_configuration(stages=2))
        workload.add_application("right", chain_configuration(stages=2))
        mapped = JointAllocator(options=options()).allocate_workload(workload)
        left, right = mapped.application("left"), mapped.application("right")
        assert set(left.budgets) == set(right.budgets)
        for task_name, budget in left.relaxed_budgets.items():
            assert right.relaxed_budgets[task_name] == pytest.approx(budget, abs=1e-6)

    def test_per_application_capacity_limits_only_bind_their_application(self):
        workload = two_app_workload()
        allocator = JointAllocator(options=options())
        free = allocator.allocate_workload(workload)
        limited = allocator.allocate_workload(
            workload, capacity_limits={"video": {"bab": 2}}
        )
        assert limited.application("video").buffer_capacities["bab"] <= 2
        # The audio application's buffer keeps its unconstrained capacity.
        assert limited.application("audio").buffer_capacities["bab"] == (
            free.application("audio").buffer_capacities["bab"]
        )
        # Squeezing the video buffers costs video budget.
        assert (
            limited.application("video").total_budget()
            > free.application("video").total_budget()
        )

    def test_unknown_application_in_limits_is_rejected(self):
        with pytest.raises(FormulationError, match="ghost"):
            WorkloadSocpFormulation(
                two_app_workload(), capacity_limits={"ghost": {"bab": 2}}
            )

    def test_jointly_infeasible_capacity_limits_raise(self):
        # Three containers per buffer is feasible for either application
        # alone, but the budgets both then need no longer fit on the two
        # shared processors: infeasibility only the joint program can see.
        workload = two_app_workload()
        allocator = JointAllocator(options=options())
        limits = {"video": {"bab": 3}, "audio": {"bab": 3}}
        for app_name in ("video", "audio"):
            solo = one_app_workload(
                workload.application(app_name).configuration
            )
            allocator.allocate_workload(
                solo, capacity_limits={"only": limits[app_name]}
            )
        # The unlimited workload remains feasible …
        allocate_workload(workload, verify=False)
        # … but the jointly limited one is not.
        with pytest.raises(InfeasibleProblemError):
            JointAllocator(options=options()).allocate_workload(
                workload, capacity_limits=limits
            )


class TestWorkloadSession:
    SWEEP = tuple(range(3, 11))

    def test_session_sweep_matches_rebuild_per_point(self):
        allocator = JointAllocator(options=options())
        session = allocator.workload_session(two_app_workload())
        rebuilt_allocator = JointAllocator(options=options())
        for limit in self.SWEEP:
            limits = {"video": {"bab": int(limit)}}
            warm = session.allocate(capacity_limits=limits)
            rebuilt = rebuilt_allocator.allocate_workload(
                two_app_workload(), capacity_limits=limits
            )
            for app_name in ("video", "audio"):
                warm_app = warm.application(app_name)
                rebuilt_app = rebuilt.application(app_name)
                assert warm_app.budgets == rebuilt_app.budgets
                assert warm_app.buffer_capacities == rebuilt_app.buffer_capacities
                for task_name, budget in rebuilt_app.relaxed_budgets.items():
                    assert warm_app.relaxed_budgets[task_name] == pytest.approx(
                        budget, abs=1e-6
                    )
        assert session.stats.compiles == 1 + len(self.SWEEP)
        assert session.stats.solves == len(self.SWEEP)
        assert session.stats.warm_started >= len(self.SWEEP) - 1

    def test_pinned_point_solves_like_one_shot_allocate(self):
        # A budget limit equal to the throughput-implied lower bound
        # (̺·χ/µ = 40/10 = 4) pins the variable onto its lower bound, and
        # compilation substitutes it out; the session point is that program.
        allocator = JointAllocator(options=options())
        session = allocator.workload_session(two_app_workload())
        limits = {"video": {"wa": 4.0}}
        mapped = session.allocate(budget_limits=limits)
        assert mapped.application("video").relaxed_budgets["wa"] == pytest.approx(
            4.0, abs=1e-6
        )
        reference = allocator.allocate_workload(two_app_workload(), budget_limits=limits)
        assert mapped.objective_value == reference.objective_value
        for app_name in ("video", "audio"):
            assert (
                mapped.application(app_name).budgets
                == reference.application(app_name).budgets
            )


class TestApplicationCapacitySweep:
    def test_sweep_constrains_only_the_named_application(self):
        explorer = TradeoffExplorer(allocator_options=options())
        curve = explorer.sweep_application_capacity(
            two_app_workload(), "video", range(2, 8)
        )
        feasible = curve.feasible_points()
        assert feasible, "expected feasible points in the sweep"
        for point in feasible:
            assert point.capacities["video/bab"] <= point.capacity_limit
        # The video budget falls monotonically as its buffering grows.
        video_budgets = [
            sum(v for k, v in point.relaxed_budgets.items() if k.startswith("video/"))
            for point in feasible
        ]
        assert all(
            later <= earlier + 1e-6
            for earlier, later in zip(video_budgets, video_budgets[1:])
        )
        assert curve.solver_stats["compiles"] >= 1

    def test_unknown_application_is_rejected(self):
        explorer = TradeoffExplorer(allocator_options=options())
        from repro.exceptions import ModelError

        with pytest.raises(ModelError, match="ghost"):
            explorer.sweep_application_capacity(two_app_workload(), "ghost", [2, 3])

    def test_unknown_buffer_is_rejected(self):
        # A misspelled buffer name must not silently sweep the unconstrained
        # program.
        explorer = TradeoffExplorer(allocator_options=options())
        from repro.exceptions import ModelError

        with pytest.raises(ModelError, match="b_typo"):
            explorer.sweep_application_capacity(
                two_app_workload(), "video", [2, 3], buffers=["b_typo"]
            )

    def test_infeasible_workload_yields_all_infeasible_points(self):
        workload = Workload(
            chain_configuration(stages=2, period=4.0).platform, name="crowded"
        )
        for index in range(3):
            workload.add_application(
                f"app{index}", chain_configuration(stages=2, period=4.0)
            )
        explorer = TradeoffExplorer(allocator_options=options())
        curve = explorer.sweep_application_capacity(workload, "app0", [2, 3, 4])
        assert not curve.feasible_points()
        assert len(curve.points) == 3

    def test_overloaded_workload_yields_all_infeasible_points(self):
        # The combined-load screen rejects this workload before any solve;
        # the sweep reports every point infeasible instead of raising.
        workload = Workload(
            chain_configuration(stages=2, period=3.0).platform, name="overloaded"
        )
        for index in range(3):
            workload.add_application(
                f"app{index}", chain_configuration(stages=2, period=3.0)
            )
        explorer = TradeoffExplorer(allocator_options=options())
        curve = explorer.sweep_application_capacity(workload, "app0", [2, 3])
        assert not curve.feasible_points()
        assert len(curve.points) == 2


class TestBatchWorkloads:
    def test_campaign_workload_entry_round_trips_and_solves(self, tmp_path):
        from repro.batch import CampaignSpec, run_campaign
        from repro.taskgraph.workload import workload_to_dict

        spec = CampaignSpec.from_dict(
            {
                "name": "wl-smoke",
                "entries": [
                    {"workload": workload_to_dict(two_app_workload())},
                    {
                        "workload": workload_to_dict(two_app_workload()),
                        "capacity_sweep": [4, 6],
                    },
                ],
            }
        )
        # to_dict/from_dict round trip keeps the workload entries.
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert [e.to_dict() for e in restored.entries] == [
            e.to_dict() for e in spec.entries
        ]
        items = spec.expand()
        # Entry 0 has distinct inline workload name 'duo'; entry 1 sweeps it.
        assert [item.label for item in items] == [
            "0:duo",
            "1:duo@cap4",
            "1:duo@cap6",
        ]
        results, summary = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert summary.total == 3
        assert all(result.feasible for result in results)
        # Flattened per-application keys.
        assert "video/wa" in results[0].budgets
        assert "audio/bab" in results[0].buffer_capacities
        # The swept items respect their bound.
        assert results[1].buffer_capacities["video/bab"] <= 4

        # A warm (cached) re-run reproduces the cold run bit-for-bit.
        warm_results, _ = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert all(result.from_cache for result in warm_results)
        assert [r.deterministic_dict() for r in warm_results] == [
            r.deterministic_dict() for r in results
        ]

    def test_workload_path_entries_resolve_against_campaign_dir(self, tmp_path):
        from repro.batch import load_campaign
        from repro.taskgraph.workload import save_workload
        import json

        save_workload(two_app_workload(), tmp_path / "duo.json")
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(
            json.dumps(
                {"name": "by-path", "entries": [{"workload_path": "duo.json"}]}
            )
        )
        items = load_campaign(campaign_path).expand()
        assert len(items) == 1
        assert items[0].workload is not None
        assert items[0].workload.application_names == ["video", "audio"]

    def test_overloaded_workload_item_is_infeasible_not_error(self):
        # The combined-load screen is a definite verdict: the item reports
        # 'infeasible' (like solver-proven infeasibility) instead of burning
        # time on backend fallback and ending as an 'error'.
        from repro.batch import CampaignSpec, run_campaign
        from repro.taskgraph.workload import workload_to_dict

        workload = Workload(
            chain_configuration(stages=2, period=3.0).platform, name="overloaded"
        )
        for index in range(3):
            workload.add_application(
                f"app{index}", chain_configuration(stages=2, period=3.0)
            )
        spec = CampaignSpec.from_dict(
            {
                "name": "overload",
                "entries": [{"workload": workload_to_dict(workload)}],
            }
        )
        results, summary = run_campaign(spec)
        assert results[0].status == "infeasible"
        assert "overloaded" in results[0].error
        assert summary.infeasible == 1 and summary.errors == 0

    def test_entry_with_two_sources_is_rejected(self):
        from repro.batch import CampaignEntry
        from repro.exceptions import ModelError
        from repro.taskgraph.workload import workload_to_dict

        with pytest.raises(ModelError, match="exactly one of"):
            CampaignEntry.from_dict(
                {
                    "generator": "chain",
                    "workload": workload_to_dict(two_app_workload()),
                }
            )
