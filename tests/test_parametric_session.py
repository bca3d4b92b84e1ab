"""Tests of the allocation sessions.

Covers every layer of the session pipeline:

* core — :meth:`~repro.core.allocator.JointAllocator.session`, each point
  built at its own limits and solved from its own start, so it equals the
  one-shot allocation at the same limits (objective, Newton counts and
  rounded allocation), over sweeps and admission traces;
* trade-off — session-backed sweeps equivalent to rebuild-per-point sweeps,
  the pinned per-point counts of the Figure 2/3 sweeps, the bisection of
  ``minimal_capacity_for_budget`` and the solver-failure propagation
  contract;
* batch — sweep families through :meth:`~repro.batch.executor.BatchExecutor.
  run_sweep`.
"""

from __future__ import annotations

import pytest

from repro.core import AllocatorOptions, JointAllocator, TradeoffExplorer
from repro.core.admission import AdmissionController, apply_trace_event, random_trace
from repro.core.allocator import AllocationSession
from repro.core.objective import ObjectiveWeights
from repro.exceptions import (
    InfeasibleProblemError,
    NumericalError,
)
from repro.experiments import figure2, figure3
from repro.taskgraph import Workload
from repro.taskgraph.generators import (
    chain_configuration,
    producer_consumer_configuration,
    random_dag_configuration,
)


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
        relaxed = session.allocate(capacity_limits={"bab": 2})
        assert relaxed.budgets == allocator.allocate(
            configuration, capacity_limits={"bab": 2}
        ).budgets


def _parity_key(mapped):
    """What a session point must share with the one-shot allocation at the
    same limits: the objective to the last bit, both phases' Newton counts
    and the rounded allocation."""
    stats = mapped.solver_info["solve_stats"]
    return (
        repr(mapped.objective_value),
        stats["newton_iterations"],
        stats["phase1_newton_iterations"],
        repr(sorted(mapped.flattened("budgets").items())),
        repr(sorted(mapped.flattened("buffer_capacities").items())),
    )


def _one_shot(allocator, subject, capacity_limits=None):
    """The one-shot allocation of ``subject``, or ``None`` when infeasible."""
    allocate = (
        allocator.allocate_workload
        if isinstance(subject, Workload)
        else allocator.allocate
    )
    try:
        return allocate(subject, capacity_limits=capacity_limits)
    except InfeasibleProblemError:
        return None


class TestSessionEqualsOneShot:
    """A session point is the one-shot allocation at the same limits: no
    point depends on the points or membership edits before it."""

    OPTIONS = AllocatorOptions(verify=False, run_simulation=False)

    def _assert_sweep_parity(self, configuration, bounds):
        allocator = JointAllocator(options=self.OPTIONS)
        session = allocator.session(configuration)
        buffers = [buffer.name for _, buffer in configuration.all_buffers()]
        feasible = 0
        for bound in bounds:
            limits = {name: bound for name in buffers}
            try:
                point = session.allocate(capacity_limits=limits)
            except InfeasibleProblemError:
                point = None
            reference = _one_shot(allocator, configuration, limits)
            assert (point is None) == (reference is None), bound
            if point is not None:
                feasible += 1
                assert _parity_key(point) == _parity_key(reference), bound
        return feasible

    @pytest.mark.parametrize("module", [figure2, figure3], ids=["figure2", "figure3"])
    def test_figure_sweep(self, module):
        configuration = module.build_configuration()
        bounds = module.DEFAULT_CAPACITY_SWEEP
        assert self._assert_sweep_parity(configuration, bounds) == len(bounds)

    def test_random_dag_sweep(self):
        configuration = random_dag_configuration(
            task_count=6, processor_count=6, seed=3
        )
        assert self._assert_sweep_parity(configuration, range(3, 13)) == 10

    def test_sweep_with_infeasible_points(self):
        configuration = producer_consumer_configuration(period=3.5)
        assert 0 < self._assert_sweep_parity(configuration, range(1, 8)) < 7

    def test_admission_trace_against_a_rebuild_of_each_membership(self):
        # Seed 2 opens with three arrivals and then a departure.
        trace = random_trace(seed=2)
        allocator = JointAllocator(options=self.OPTIONS)
        controller = AdmissionController(trace.platform, allocator=allocator)
        compared = rejected = 0
        for index, event in enumerate(trace.events):
            record = apply_trace_event(controller, index, event)
            membership = Workload(trace.platform, name="rebuild")
            for name in controller.running:
                membership.add_application(
                    name, controller.workload.application(name).configuration
                )
            if record.status == "rejected" and record.stage == "solver":
                # The candidate's joint program is infeasible when rebuilt too.
                membership.add_application(event.application, event.configuration)
                assert _one_shot(allocator, membership) is None, index
                rejected += 1
            elif controller.mapped is not None:
                reference = _one_shot(allocator, membership)
                assert _parity_key(controller.mapped) == _parity_key(reference), index
                compared += 1
        assert compared >= 8

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
    no point runs phase I; the totals are 366 (Figure 2) and 402
    (Figure 3)."""

    FIGURE2 = dict(
        newton=[31, 36, 32, 34, 35, 38, 42, 39, 41, 38],
        budgets=[37.0, 32.0, 27.0, 22.0, 18.0, 14.0, 10.0, 7.0, 5.0, 4.0],
    )
    FIGURE3 = dict(
        newton=[35, 40, 35, 41, 43, 35, 40, 40, 47, 46],
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


class TestMinimalCapacityBisection:
    """``minimal_capacity_for_budget`` bisects the sorted bounds and returns
    what the linear walk from the smallest bound returns: feasibility is
    monotone in the bound, and every point depends only on its limits.
    The barrier backend decides each bound: ``auto`` would add an SLSQP
    run after every infeasible one and prove nothing new."""

    OPTIONS = AllocatorOptions(backend="barrier", verify=False, run_simulation=False)
    BUDGETS = range(4, 41)

    @staticmethod
    def _key(mapped):
        if mapped is None:
            return None
        return repr(
            (
                mapped.objective_value,
                sorted(mapped.budgets.items()),
                sorted(mapped.buffer_capacities.items()),
            )
        )

    def _linear_walk(self, explorer, configuration, budget, bounds):
        """The one-shot allocation at the smallest feasible bound and the
        number of solves the walk from the smallest bound took to find it
        (``None`` and every bound when none is feasible)."""
        allocator = JointAllocator(weights=explorer.weights, options=self.OPTIONS)
        budget_limits = {task.name: float(budget) for _, task in configuration.all_tasks()}
        for solves, bound in enumerate(bounds, start=1):
            limits = {buffer.name: bound for _, buffer in configuration.all_buffers()}
            try:
                return (
                    allocator.allocate(
                        configuration,
                        capacity_limits=limits,
                        budget_limits=budget_limits,
                    ),
                    solves,
                )
            except InfeasibleProblemError:
                continue
        return None, len(bounds)

    @pytest.mark.parametrize("module", [figure2, figure3], ids=["figure2", "figure3"])
    def test_bisection_equals_the_linear_walk(self, module, monkeypatch):
        solves = []
        allocate = AllocationSession.allocate

        def counting(self, *args, **kwargs):
            solves.append(1)
            return allocate(self, *args, **kwargs)

        monkeypatch.setattr(AllocationSession, "allocate", counting)
        configuration = module.build_configuration()
        explorer = TradeoffExplorer(allocator_options=self.OPTIONS)
        walked = bisected = cut_off = 0
        for budget in self.BUDGETS:
            reference, steps = self._linear_walk(
                explorer, configuration, budget, range(1, 21)
            )
            # The walk over bounds 1-8 stops where the walk over 1-20 does,
            # or finds nothing (budgets 5 and 6 first fit at bound 9).
            short = (reference, steps) if steps <= 8 else (None, 8)
            cut_off += reference is not None and short[0] is None
            for bounds, (expected, walk) in (
                (range(1, 21), (reference, steps)),
                (range(1, 9), short),
            ):
                del solves[:]
                found = explorer.minimal_capacity_for_budget(
                    configuration, budget, bounds
                )
                assert self._key(found) == self._key(expected), (bounds, budget)
                walked += walk
                bisected += len(solves)
        assert cut_off >= 1
        assert bisected < walked


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
