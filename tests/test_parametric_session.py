"""Tests of the warm-started solve sessions.

Covers every layer of the session pipeline:

* solver — :class:`~repro.solver.parametric.SolveSession`, warm starts
  carried over by variable name;
* core — :meth:`~repro.core.allocator.JointAllocator.session`, each point
  built at its own limits;
* trade-off — session-backed sweeps equivalent to rebuild-per-point sweeps,
  the pinned per-point counts of the Figure 2/3 sweeps, and the
  solver-failure propagation contract;
* batch — sweep families through :meth:`~repro.batch.executor.BatchExecutor.
  run_sweep`.
"""

from __future__ import annotations

import pytest

from program_rows import hyperbolic, le, minimize
from repro import obs
from repro.core import AllocatorOptions, JointAllocator, TradeoffExplorer
from repro.core.admission import random_trace
from repro.core.formulation import SocpFormulation
from repro.core.objective import ObjectiveWeights
from repro.exceptions import (
    InfeasibleProblemError,
    NumericalError,
)
from repro.experiments import figure2, figure3
from repro.solver import ConeProgram, SolverStatus
from repro.solver.backends import solve_compiled
from repro.solver.barrier import BarrierOptions
from repro.solver.parametric import SolveSession
from repro.taskgraph import Workload
from repro.taskgraph.generators import (
    chain_configuration,
    producer_consumer_configuration,
    random_dag_configuration,
)


# -- solver layer -------------------------------------------------------------
def _program(xmax=10.0, with_z=False):
    """``x·y ≥ 4``, ``x + y ≤ 12``, ``x ≤ xmax``; optionally a free-standing
    ``z`` with its own objective term."""
    program = ConeProgram("session-demo")
    x = program.add_variable("x", lower=0.0, upper=xmax)
    y = program.add_variable("y", lower=0.5, upper=10.0)
    hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
    le(program, {x: 1.0, y: 1.0}, 12.0, name="sum")
    objective = {x: 1.0, y: 2.0}
    if with_z:
        z = program.add_variable("z", lower=1.0, upper=3.0)
        objective[z] = 1.0
    minimize(program, objective)
    return program


def _start(compiled, **values):
    return {var: values[var.name] for var in compiled.variables if var.name in values}


class TestSolveSession:
    def test_warm_start_is_carried_by_name(self, monkeypatch):
        import repro.solver.backends as backends

        session = SolveSession(backend="barrier")
        first = session.solve(_program().compile())
        assert first.is_optimal and first.stats["warm_started"] is False
        # Another program over the same names plus ``z``: the session starts
        # from the previous optimum, ``z`` from the program's own start.
        compiled = _program(xmax=9.0, with_z=True).compile()
        start = _start(compiled, x=5.0, y=5.0, z=2.0)
        starts = []

        def spy(problem, backend, initial_point, interior_point):
            starts.append(initial_point)
            return solve_compiled(problem, backend, initial_point, interior_point)

        monkeypatch.setattr(backends, "solve_compiled", spy)
        second = session.solve(compiled, start)
        assert second.stats["warm_started"] is True
        assert second.stats["phase1_skipped"] is True
        values = first.by_name()
        assert starts[0].tolist() == [values["x"], values["y"], 2.0]
        cold = solve_compiled(compiled, "barrier", start)
        assert second.objective == pytest.approx(cold.objective, rel=1e-9)
        assert session.stats.solves == 2 and session.stats.warm_started == 1

    def test_reset_forces_cold_solve(self):
        session = SolveSession(backend="barrier")
        session.solve(_program().compile())
        session.reset()
        assert session.state_dict() == {"warm": None, "interior": None}
        solution = session.solve(_program(xmax=9.0).compile())
        assert solution.stats["warm_started"] is False

    def test_infeasible_point_keeps_the_warm_state(self):
        session = SolveSession(backend="barrier")
        assert session.solve(_program().compile()).is_optimal
        state = session.state_dict()
        # x·y ≥ 4 with x ≤ 0.3, y ≤ 10 is infeasible (0.3·10 < 4).
        infeasible = session.solve(_program(xmax=0.3).compile())
        assert infeasible.status is SolverStatus.INFEASIBLE
        assert session.state_dict() == state
        assert session.solve(_program().compile()).is_optimal

    def test_state_round_trips_and_forgets_removed_names(self):
        session = SolveSession(backend="barrier")
        session.solve(_program(with_z=True).compile())
        state = session.state_dict()
        assert set(state) == {"warm", "interior"}
        assert set(state["warm"]) == {"x", "y", "z"}
        restored = SolveSession(backend="barrier")
        restored.load_state({**state, "retired_key": 3})
        assert restored.state_dict() == state
        restored.keep(["x", "y"])
        kept = restored.state_dict()
        assert set(kept["warm"]) == set(kept["interior"]) == {"x", "y"}


class TestAllocationSession:
    def test_session_matches_one_shot_allocate(self):
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))
        session = allocator.session(configuration)
        for limit in (5, 3, 8):
            mapped = session.allocate(capacity_limits={"bab": limit})
            reference = allocator.allocate(
                configuration, capacity_limits={"bab": limit}
            )
            assert mapped.budgets == reference.budgets
            assert mapped.buffer_capacities == reference.buffer_capacities
            for task in reference.relaxed_budgets:
                assert mapped.relaxed_budgets[task] == pytest.approx(
                    reference.relaxed_budgets[task], abs=1e-6
                )
        # The unlimited program at construction, then one build per point.
        assert session.stats.compiles == 4
        assert session.stats.solves == 3

    def test_solver_info_carries_solve_stats(self):
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))
        session = allocator.session(configuration)
        mapped = session.allocate(capacity_limits={"bab": 5})
        stats = mapped.solver_info["solve_stats"]
        assert "phase1_skipped" in stats
        assert "newton_iterations" in stats

    def test_limits_raise_like_the_rebuild_path(self):
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))
        session = allocator.session(configuration)
        with pytest.raises(InfeasibleProblemError, match="budget upper bound"):
            session.allocate(budget_limits={"wa": 0.5})
        with pytest.raises(InfeasibleProblemError, match="smallest feasible"):
            session.allocate(capacity_limits={"bab": 0})
        # A point that cannot be built leaves the session usable.
        mapped = session.allocate(capacity_limits={"bab": 4})
        reference = allocator.allocate(configuration, capacity_limits={"bab": 4})
        assert mapped.budgets == reference.budgets

    def test_pinned_point_solves_like_one_shot_allocate(self):
        # Capacity 1 is the buffer's smallest feasible capacity: compilation
        # substitutes it out, and the session point is that same program.
        configuration = producer_consumer_configuration()
        allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))
        session = allocator.session(configuration)
        mapped = session.allocate(capacity_limits={"bab": 1})
        assert session.stats.compiles == 2
        assert session.stats.solves == 1
        assert session.stats.newton_iterations > 0
        reference = allocator.allocate(configuration, capacity_limits={"bab": 1})
        assert mapped.budgets == reference.budgets
        assert mapped.objective_value == reference.objective_value
        # The next point warm-starts from it; the pinned capacity takes its
        # value from that point's own start.
        relaxed = session.allocate(capacity_limits={"bab": 2})
        assert relaxed.solver_info["solve_stats"]["warm_started"] is True
        assert relaxed.budgets == allocator.allocate(
            configuration, capacity_limits={"bab": 2}
        ).budgets


def _warm_phase_two_first_rungs(spans):
    """The barrier of the first phase-II rung of every warm-started solve."""
    firsts = []

    def walk(span, warm):
        if span["name"] == "solve":
            warm = bool(span.get("attributes", {}).get("warm_started"))
        if warm and span["name"] == "centering":
            rungs = [c for c in span.get("children", []) if c["name"] == "rung"]
            firsts.append(rungs[0]["attributes"]["barrier"])
        for child in span.get("children", []):
            walk(child, warm)

    for root in spans:
        walk(root, False)
    return firsts


class TestWarmEndsOnColdRung:
    """A warm re-solve walks the cold rung ladder from ``initial_barrier``,
    so it stops on the same rung, at the same optimum, as a cold solve of
    the same compiled problem."""

    OPTIONS = AllocatorOptions(backend="barrier", verify=False, run_simulation=False)

    def _assert_warm_matches_cold(self, compiled, mapped, captured):
        stats = mapped.solver_info["solve_stats"]
        assert stats["warm_started"] is True
        cold = solve_compiled(compiled, backend="barrier")
        assert cold.is_optimal
        assert stats["final_barrier"] == cold.stats["final_barrier"]
        assert mapped.objective_value == pytest.approx(cold.objective, rel=1e-9)
        firsts = _warm_phase_two_first_rungs(captured.spans)
        assert firsts
        assert all(b == BarrierOptions().initial_barrier for b in firsts), firsts

    def test_limit_change(self):
        configuration = chain_configuration(stages=4)
        session = JointAllocator(options=self.OPTIONS).session(configuration)
        session.allocate(capacity_limits={"bab": 3})
        # Relaxing the limit keeps the previous optimum strictly feasible.
        with obs.capture() as captured:
            mapped = session.allocate(capacity_limits={"bab": 6})
        assert mapped.solver_info["solve_stats"]["phase1_skipped"] is True
        compiled = SocpFormulation(
            configuration, session.allocator.weights, capacity_limits={"bab": 6}
        ).build().compile()
        self._assert_warm_matches_cold(compiled, mapped, captured)

    def test_workload_add_and_remove(self):
        # Seed 2 opens with three arrivals and then a departure; warm
        # re-solves after that departure used to start phase II on a raised
        # rung that failed to center.
        events = random_trace(seed=2).events
        assert [e.action for e in events[:4]] == ["arrive"] * 3 + ["depart"]
        workload = Workload(events[0].configuration.platform, name="warm-cold")
        for event in events[:2]:
            workload.add_application(event.application, event.configuration)
        session = JointAllocator(options=self.OPTIONS).workload_session(workload)
        session.allocate()

        session.add_application(events[2].application, events[2].configuration)
        with obs.capture() as captured:
            mapped = session.allocate()
        self._assert_warm_matches_cold(
            SocpFormulation(workload, session.allocator.weights).build().compile(),
            mapped,
            captured,
        )

        session.remove_application(events[3].application)
        with obs.capture() as captured:
            mapped = session.allocate()
        assert mapped.solver_info["solve_stats"]["phase1_skipped"] is True
        self._assert_warm_matches_cold(
            SocpFormulation(workload, session.allocator.weights).build().compile(),
            mapped,
            captured,
        )


class TestWarmStartEquivalence:
    """Property-style equivalence: session sweeps vs rebuild-per-point."""

    CONFIGURATIONS = [
        ("chain-4", lambda: chain_configuration(stages=4), range(1, 9)),
        (
            "dag-seed1",
            lambda: random_dag_configuration(
                task_count=5, processor_count=5, seed=1
            ),
            range(2, 12),
        ),
        (
            "dag-seed7",
            lambda: random_dag_configuration(
                task_count=7, processor_count=7, seed=7
            ),
            range(2, 12),
        ),
        # A tight period makes the smallest capacity bounds infeasible, so
        # the verdict equivalence is exercised too.
        (
            "pc-tight",
            lambda: producer_consumer_configuration(period=3.5),
            range(1, 8),
        ),
    ]

    @pytest.mark.parametrize(
        "name,build,sweep", CONFIGURATIONS, ids=[c[0] for c in CONFIGURATIONS]
    )
    def test_session_sweep_equals_rebuild_sweep(self, name, build, sweep):
        configuration = build()
        options = AllocatorOptions(run_simulation=False, verify=False)
        explorer = TradeoffExplorer(allocator_options=options)
        curve = explorer.sweep_capacity_limit(configuration, sweep)

        allocator = JointAllocator(options=options)
        buffer_names = [
            buffer.name for _, buffer in configuration.all_buffers()
        ]
        for limit, point in zip(sweep, curve.points):
            limits = {buffer: int(limit) for buffer in buffer_names}
            try:
                reference = allocator.allocate(configuration, capacity_limits=limits)
            except InfeasibleProblemError:
                assert point.feasible is False, (
                    f"{name}@{limit}: session feasible, rebuild infeasible"
                )
                continue
            assert point.feasible is True, (
                f"{name}@{limit}: session infeasible, rebuild feasible"
            )
            for task, budget in reference.relaxed_budgets.items():
                assert point.relaxed_budgets[task] == pytest.approx(
                    budget, abs=1e-6
                ), f"{name}@{limit}: budget[{task}]"
            assert point.budgets == reference.budgets
            assert point.capacities == reference.buffer_capacities

    def test_one_compile_per_sweep_point(self):
        configuration = random_dag_configuration(
            task_count=5, processor_count=5, seed=1
        )
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False, verify=False)
        )
        curve = explorer.sweep_capacity_limit(configuration, range(2, 12))
        # The session's unlimited program, then each point at its own limits.
        assert curve.solver_stats["compiles"] == 1 + len(curve.points)
        assert curve.solver_stats["solves"] == len(curve.feasible_points())

    def test_phase_one_skipped_on_most_points(self):
        configuration = random_dag_configuration(
            task_count=6, processor_count=6, seed=3
        )
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False, verify=False)
        )
        curve = explorer.sweep_capacity_limit(configuration, range(3, 23))
        stats = curve.solver_stats
        assert stats["solves"] == 20
        assert stats["phase1_skipped"] >= stats["solves"] // 2


class TestFigureSweepCounts:
    """The count gate of later session changes: per point, the phase-II and
    phase-I Newton steps and the rounded allocation of the Figure 2 and
    Figure 3 session sweeps.  Every point starts inside its own limits, so
    no point runs phase I."""

    FIGURE2 = dict(
        newton=[31, 34, 32, 32, 36, 35, 39, 37, 38, 37],
        budgets=[37.0, 32.0, 27.0, 22.0, 18.0, 14.0, 10.0, 7.0, 5.0, 4.0],
    )
    FIGURE3 = dict(
        newton=[35, 38, 34, 41, 40, 36, 40, 39, 47, 43],
        budgets=[
            (34.0, 39.0), (24.0, 39.0), (15.0, 39.0), (8.0, 39.0), (7.0, 32.0),
            (6.0, 23.0), (6.0, 15.0), (5.0, 9.0), (4.0, 5.0), (4.0, 4.0),
        ],
    )

    @staticmethod
    def _curve(module):
        explorer = TradeoffExplorer(
            weights=ObjectiveWeights.prefer_budgets(),
            allocator_options=AllocatorOptions(run_simulation=False),
        )
        return explorer.sweep_capacity_limit(
            module.build_configuration(), module.DEFAULT_CAPACITY_SWEEP
        )

    @staticmethod
    def _counts(curve):
        return [
            (point.solve_stats["newton_iterations"], point.solve_stats["phase1_newton_iterations"])
            for point in curve.points
        ]

    def test_figure2(self):
        curve = self._curve(figure2)
        assert self._counts(curve) == [(n, 0) for n in self.FIGURE2["newton"]]
        assert [point.budgets for point in curve.points] == [
            {"wa": budget, "wb": budget} for budget in self.FIGURE2["budgets"]
        ]
        assert [point.capacities for point in curve.points] == [
            {"bab": limit} for limit in range(1, 11)
        ]

    def test_figure3(self):
        curve = self._curve(figure3)
        assert self._counts(curve) == [(n, 0) for n in self.FIGURE3["newton"]]
        assert [point.budgets for point in curve.points] == [
            {"wa": outer, "wb": inner, "wc": outer}
            for outer, inner in self.FIGURE3["budgets"]
        ]
        assert [point.capacities for point in curve.points] == [
            {"bab": limit, "bbc": limit} for limit in range(1, 11)
        ]


def _statically_infeasible_configuration():
    """A configuration whose *unlimited* SOCP is already contradictory.

    ``wa``'s max_budget (2) lies below the throughput-implied budget floor
    ``ρ·χ/µ = 40·1/10 = 4``, so building the formulation raises
    :class:`InfeasibleProblemError` before any capacity limit is applied.
    """
    from repro.taskgraph.buffer import Buffer
    from repro.taskgraph.configuration import Configuration
    from repro.taskgraph.graph import TaskGraph
    from repro.taskgraph.platform import homogeneous_platform
    from repro.taskgraph.task import Task

    platform = homogeneous_platform(processor_count=2, replenishment_interval=40.0)
    graph = TaskGraph(name="T1", period=10.0)
    graph.add_task(Task(name="wa", wcet=1.0, processor="p1", max_budget=2.0))
    graph.add_task(Task(name="wb", wcet=1.0, processor="p2"))
    graph.add_buffer(Buffer(name="bab", source="wa", target="wb", memory="m1"))
    return Configuration(
        platform=platform, task_graphs=[graph], name="static-infeasible"
    )


class TestStaticallyInfeasibleConfigurations:
    """Session construction failures must not change the sweep contracts."""

    def test_sweep_yields_all_infeasible_points(self):
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False)
        )
        curve = explorer.sweep_capacity_limit(
            _statically_infeasible_configuration(), [5, 10]
        )
        assert [point.feasible for point in curve.points] == [False, False]
        assert curve.capacity_limits() == [5, 10]

    def test_minimal_capacity_returns_none(self):
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False)
        )
        assert (
            explorer.minimal_capacity_for_budget(
                _statically_infeasible_configuration(),
                budget_limit=10.0,
                capacity_limits=[5, 10],
            )
            is None
        )


class TestSolverFailurePropagation:
    """The satellite bugfix: only genuine infeasibility is swallowed."""

    def _explorer_with_failing_session(self, monkeypatch, error):
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False)
        )

        class FailingSession:
            stats = None

            def allocate(self, **kwargs):
                raise error

        monkeypatch.setattr(
            type(explorer.allocator), "session", lambda self, cfg: FailingSession()
        )
        return explorer

    def test_minimal_capacity_propagates_numerical_errors(self, monkeypatch):
        explorer = self._explorer_with_failing_session(
            monkeypatch, NumericalError("solver diverged")
        )
        with pytest.raises(NumericalError, match="solver diverged"):
            explorer.minimal_capacity_for_budget(
                producer_consumer_configuration(),
                budget_limit=10.0,
                capacity_limits=[1, 2, 3],
            )

    def test_minimal_capacity_continues_past_infeasibility(self, monkeypatch):
        explorer = self._explorer_with_failing_session(
            monkeypatch, InfeasibleProblemError("genuinely impossible")
        )
        result = explorer.minimal_capacity_for_budget(
            producer_consumer_configuration(),
            budget_limit=10.0,
            capacity_limits=[1, 2],
        )
        assert result is None

    def test_sweep_propagates_numerical_errors(self, monkeypatch):
        explorer = self._explorer_with_failing_session(
            monkeypatch, NumericalError("solver diverged")
        )
        with pytest.raises(NumericalError):
            explorer.sweep_capacity_limit(
                producer_consumer_configuration(), [1, 2]
            )


# -- batch layer ---------------------------------------------------------------
class TestBatchSweepFamilies:
    def test_run_sweep_returns_points_and_stats(self):
        from repro.batch import BatchExecutor

        result = BatchExecutor().run_sweep(
            producer_consumer_configuration(), range(1, 6)
        )
        assert result.status == "ok"
        assert [point["capacity_limit"] for point in result.points] == [1, 2, 3, 4, 5]
        # The session's unlimited program, then one build per point (limit
        # 1 pins the buffer's capacity onto its lower bound like any other).
        assert "rebuilds" not in result.solver_stats
        assert result.solver_stats["compiles"] == 6
        assert all(point["feasible"] for point in result.points)

    def test_run_sweep_family_is_cached_as_one_unit(self, tmp_path):
        from repro.batch import BatchExecutor, ResultCache

        cache = ResultCache(tmp_path / "cache")
        configuration = producer_consumer_configuration()
        cold = BatchExecutor(cache=cache).run_sweep(configuration, range(1, 6))
        assert cold.from_cache is False
        assert len(cache) == 1
        warm = BatchExecutor(cache=cache).run_sweep(configuration, range(1, 6))
        assert warm.from_cache is True
        assert warm.points == cold.points
        # A different sweep over the same configuration is a different family.
        other = BatchExecutor(cache=cache).run_sweep(configuration, range(1, 4))
        assert other.from_cache is False

    def test_item_result_stats_round_trip(self):
        from repro.batch.executor import ItemResult, STATUS_OK

        result = ItemResult(
            label="x",
            key="k",
            status=STATUS_OK,
            budgets={"wa": 18.0},
            stats={"phase1_skipped": True, "newton_iterations": 42},
        )
        clone = ItemResult.from_dict(result.to_dict())
        assert clone.stats == result.stats
        assert clone.deterministic_dict() == result.deterministic_dict()
