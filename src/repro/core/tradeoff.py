"""Budget / buffer-size trade-off exploration.

The experiments of the paper explore the non-linear trade-off between budgets
and buffer capacities by constraining the maximum buffer capacity and
recording the minimal budgets the SOCP returns (Figures 2(a), 2(b), 3).
:class:`TradeoffExplorer` automates that sweep for arbitrary configurations.

Every sweep point solves the same cone program up to a handful of bound
values, so both capacity sweeps — over a configuration and over one
application of a workload — drive one :class:`~repro.core.allocator.
AllocationSession` through the same loop: each point is built at its own
bounds and solved from its own model-built start, so a point does not
depend on the points before it.
Per-point solver statistics land in
:attr:`TradeoffPoint.solve_stats` and the session aggregate in
:attr:`TradeoffCurve.solver_stats`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import (
    InfeasibleModelError,
    InfeasibleProblemError,
    ModelError,
)
from repro.core.allocator import AllocatorOptions, JointAllocator
from repro.core.objective import ObjectiveWeights
from repro.taskgraph.configuration import Configuration, MappedConfiguration
from repro.taskgraph.workload import Workload


@dataclass
class TradeoffPoint:
    """One point of the trade-off curve: a capacity bound and the resulting mapping."""

    capacity_limit: int
    feasible: bool
    budgets: Dict[str, float] = field(default_factory=dict)
    relaxed_budgets: Dict[str, float] = field(default_factory=dict)
    capacities: Dict[str, int] = field(default_factory=dict)
    objective_value: Optional[float] = None
    #: Per-point solver statistics (phase-I skipped, Newton iterations, …).
    solve_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def total_budget(self) -> float:
        return sum(self.budgets.values())

    @property
    def total_relaxed_budget(self) -> float:
        return sum(self.relaxed_budgets.values())

    def budget(self, task_name: str) -> float:
        return self.budgets[task_name]


@dataclass
class TradeoffCurve:
    """A sequence of trade-off points indexed by the capacity limit."""

    configuration_name: str
    points: List[TradeoffPoint] = field(default_factory=list)
    #: Aggregate session statistics for the whole sweep
    #: (:meth:`repro.solver.parametric.SessionStats.as_dict`).
    solver_stats: Dict[str, object] = field(default_factory=dict)

    def feasible_points(self) -> List[TradeoffPoint]:
        return [point for point in self.points if point.feasible]

    def capacity_limits(self) -> List[int]:
        return [point.capacity_limit for point in self.points]

    def budgets_of(self, task_name: str, relaxed: bool = False) -> List[float]:
        """Budget of one task along the sweep (feasible points only)."""
        source = "relaxed_budgets" if relaxed else "budgets"
        return [getattr(point, source)[task_name] for point in self.feasible_points()]

    def total_budgets(self, relaxed: bool = False) -> List[float]:
        if relaxed:
            return [point.total_relaxed_budget for point in self.feasible_points()]
        return [point.total_budget for point in self.feasible_points()]

    def budget_reductions(self, task_name: Optional[str] = None, relaxed: bool = True) -> List[float]:
        """Per-step budget reduction (Figure 2(b) of the paper).

        Element ``i`` is the budget required at capacity limit ``d_i`` minus
        the budget required at ``d_{i+1}`` — the gain of adding one container.
        Relaxed budgets are used by default because the paper's plot is the
        continuous (pre-rounding) trade-off.
        """
        feasible = self.feasible_points()
        values: List[float] = []
        for before, after in zip(feasible, feasible[1:]):
            if task_name is None:
                values.append(
                    (before.total_relaxed_budget if relaxed else before.total_budget)
                    - (after.total_relaxed_budget if relaxed else after.total_budget)
                )
            else:
                source = "relaxed_budgets" if relaxed else "budgets"
                values.append(
                    getattr(before, source)[task_name] - getattr(after, source)[task_name]
                )
        return values

    def as_table(self) -> List[Dict[str, object]]:
        """Plain-dict rows used by the reporting helpers and benchmarks."""
        rows: List[Dict[str, object]] = []
        for point in self.points:
            row: Dict[str, object] = {
                "capacity_limit": point.capacity_limit,
                "feasible": point.feasible,
                "objective": point.objective_value,
                "total_budget": point.total_budget if point.feasible else None,
            }
            for task_name, budget in sorted(point.budgets.items()):
                row[f"budget[{task_name}]"] = budget
            for buffer_name, capacity in sorted(point.capacities.items()):
                row[f"capacity[{buffer_name}]"] = capacity
            rows.append(row)
        return rows


@dataclass
class DvfsPoint:
    """One point of a DVFS sweep: a speed assignment and the resulting mapping."""

    speeds: Dict[str, float]
    feasible: bool
    budgets: Dict[str, float] = field(default_factory=dict)
    relaxed_budgets: Dict[str, float] = field(default_factory=dict)
    capacities: Dict[str, int] = field(default_factory=dict)
    objective_value: Optional[float] = None

    @property
    def total_budget(self) -> float:
        return sum(self.budgets.values())


@dataclass
class DvfsSweep:
    """The full cartesian DVFS sweep of a configuration."""

    configuration_name: str
    points: List[DvfsPoint] = field(default_factory=list)

    def feasible_points(self) -> List[DvfsPoint]:
        return [point for point in self.points if point.feasible]

    def best(self) -> Optional[DvfsPoint]:
        """The feasible point with the lowest objective value, if any."""
        feasible = self.feasible_points()
        if not feasible:
            return None
        return min(feasible, key=lambda point: point.objective_value)


class TradeoffExplorer:
    """Sweep the maximum buffer capacity and record the minimal budgets."""

    def __init__(
        self,
        weights: Optional[ObjectiveWeights] = None,
        allocator_options: Optional[AllocatorOptions] = None,
    ) -> None:
        # The paper's sweeps minimise budgets first; buffer capacities enter
        # the objective only as a tie-breaker.
        self.weights = weights or ObjectiveWeights.prefer_budgets()
        self.allocator = JointAllocator(
            weights=self.weights, options=allocator_options or AllocatorOptions()
        )

    def sweep_capacity_limit(
        self,
        configuration: Configuration,
        capacity_limits: Sequence[int],
        buffers: Optional[Iterable[str]] = None,
    ) -> TradeoffCurve:
        """Solve the joint problem for each maximum capacity in ``capacity_limits``.

        Parameters
        ----------
        configuration:
            The configuration to sweep.
        capacity_limits:
            The capacity bounds to apply (in containers); each bound is applied
            to every buffer in ``buffers`` (default: all buffers).
        """
        buffer_names = list(buffers) if buffers is not None else [
            buffer.name for _, buffer in configuration.all_buffers()
        ]
        return self._sweep(
            configuration,
            configuration.name,
            capacity_limits,
            lambda limit: {name: limit for name in buffer_names},
        )

    def sweep_application_capacity(
        self,
        workload: Workload,
        application: str,
        capacity_limits: Sequence[int],
        buffers: Optional[Iterable[str]] = None,
    ) -> TradeoffCurve:
        """Sweep one application's buffer-capacity bound inside a loaded platform.

        The rest of the workload stays untouched: every sweep point re-solves
        the *whole* block-structured program (the other applications' budgets
        may shift, since all applications share the processor capacity rows),
        but only the named application's buffers are constrained.  This is the
        admission-style question of the paper's setting: how much budget does
        one application need at each buffering level, given the platform is
        already shared?

        The sweep runs through an :class:`~repro.core.allocator.
        AllocationSession`, one point per bound.  Budgets and capacities in the
        returned points are keyed ``"<application>/<name>"`` across *all*
        applications of the workload.

        Parameters
        ----------
        workload:
            The multi-application workload to sweep.
        application:
            Name of the application whose buffers are constrained.
        capacity_limits:
            The capacity bounds to apply (in containers); each bound is
            applied to every buffer in ``buffers`` (default: all of the
            application's buffers).
        """
        app = workload.application(application)
        buffer_names = list(buffers) if buffers is not None else app.buffer_names()
        unknown = sorted(set(buffer_names) - set(app.buffer_names()))
        if unknown:
            # A misspelled buffer would otherwise sweep the unconstrained
            # program silently, point after point.
            raise ModelError(
                f"application {application!r} has no buffer(s) {unknown}"
            )
        return self._sweep(
            workload,
            f"{workload.name}:{application}",
            capacity_limits,
            lambda limit: {application: {name: limit for name in buffer_names}},
        )

    def _sweep(self, subject, curve_name, capacity_limits, limits_at) -> TradeoffCurve:
        """One allocation session over ``subject``, one point per capacity
        bound; ``limits_at(bound)`` gives the point's limits in the subject's
        shape.  Budgets and capacities are keyed as the subject's
        :meth:`flattened` views key them."""
        curve = TradeoffCurve(configuration_name=curve_name)
        try:
            session = self.allocator.session(subject)
        except InfeasibleProblemError:
            # The *unlimited* program is already contradictory (e.g. a task's
            # max_budget below its throughput-implied floor); capacity limits
            # only tighten it, so every sweep point is infeasible.
            curve.points = [
                TradeoffPoint(capacity_limit=int(limit), feasible=False)
                for limit in capacity_limits
            ]
            return curve
        for limit in map(int, capacity_limits):
            try:
                mapped = session.allocate(capacity_limits=limits_at(limit))
            except InfeasibleProblemError:
                # A genuinely infeasible point is part of the curve; solver
                # failures (any other SolverError) propagate to the caller.
                curve.points.append(TradeoffPoint(capacity_limit=limit, feasible=False))
                continue
            curve.points.append(
                TradeoffPoint(
                    capacity_limit=limit,
                    feasible=True,
                    budgets=mapped.flattened("budgets"),
                    relaxed_budgets=mapped.flattened("relaxed_budgets"),
                    capacities=mapped.flattened("buffer_capacities"),
                    objective_value=mapped.objective_value,
                    solve_stats=dict(mapped.solver_info.get("solve_stats", {})),
                )
            )
        curve.solver_stats = session.stats.as_dict()
        return curve

    def sweep_dvfs(
        self,
        configuration: Configuration,
        processors: Optional[Iterable[str]] = None,
    ) -> DvfsSweep:
        """Solve the joint problem at every discrete DVFS operating point.

        The cartesian product of the ``dvfs_levels`` of the swept processors
        (default: every processor that declares levels) is enumerated in
        deterministic order.  A speed change alters the *coefficients* of
        the throughput constraints and the variables' bounds alike, so each
        point builds the configuration via :meth:`~repro.taskgraph.platform.
        Platform.with_speeds` and allocates it on its own.  Operating points whose
        load screen or cone program is infeasible become infeasible sweep
        points rather than errors.
        """
        platform = configuration.platform
        if processors is None:
            names = [p.name for p in platform if p.dvfs_levels is not None]
        else:
            names = list(processors)
            for name in names:
                if platform.processor(name).dvfs_levels is None:
                    raise ModelError(
                        f"processor {name!r} declares no DVFS levels to sweep"
                    )
        if not names:
            raise ModelError(
                f"configuration {configuration.name!r} has no processor with "
                f"DVFS levels; nothing to sweep"
            )
        axes = [platform.processor(name).dvfs_levels for name in names]
        sweep = DvfsSweep(configuration_name=configuration.name)
        for combination in itertools.product(*axes):
            speeds = dict(zip(names, combination))
            clocked = Configuration(
                platform=platform.with_speeds(speeds),
                task_graphs=configuration.task_graphs,
                granularity=configuration.granularity,
                name=configuration.name,
            )
            try:
                mapped = self.allocator.allocate(clocked)
            except (InfeasibleModelError, InfeasibleProblemError):
                sweep.points.append(DvfsPoint(speeds=speeds, feasible=False))
                continue
            sweep.points.append(
                DvfsPoint(
                    speeds=speeds,
                    feasible=True,
                    budgets=dict(mapped.budgets),
                    relaxed_budgets=dict(mapped.relaxed_budgets),
                    capacities=dict(mapped.buffer_capacities),
                    objective_value=mapped.objective_value,
                )
            )
        return sweep

    def minimal_capacity_for_budget(
        self,
        configuration: Configuration,
        budget_limit: float,
        capacity_limits: Sequence[int],
    ) -> Optional[MappedConfiguration]:
        """Smallest capacity bound under which every task budget fits ``budget_limit``.

        Returns the mapped configuration at the smallest feasible capacity
        bound of ``capacity_limits``, or ``None`` when even the largest bound
        is infeasible.  This explores the trade-off from the other side:
        given scarce processor budget, how much buffering is needed?

        Feasibility is monotone in the bound (a larger buffer never breaks
        a schedule), and every session point depends only on its own
        limits, so the search bisects the sorted bounds: about ``log2``
        of their number solves instead of one per bound below the answer.

        Only genuine infeasibility (:class:`InfeasibleProblemError`) moves
        the search to larger bounds.  Any other
        :class:`~repro.exceptions.SolverError` — numerical failure, an
        unbounded program — propagates: silently treating a solver failure as
        "needs more buffering" would corrupt the reported minimal capacity.
        """
        budget_limits = {
            task.name: float(budget_limit)
            for _, task in configuration.all_tasks()
        }
        try:
            session = self.allocator.session(configuration)
        except InfeasibleProblemError:
            # The unlimited program is already contradictory; no capacity
            # bound can help.
            return None
        bounds = sorted(set(int(v) for v in capacity_limits))
        # Every bound below ``low`` is infeasible; ``best`` is the mapping
        # at ``bounds[high]``, the smallest feasible bound found so far.
        low, high = 0, len(bounds)
        best: Optional[MappedConfiguration] = None
        while low < high:
            middle = (low + high) // 2
            limits = {
                buffer.name: bounds[middle]
                for _, buffer in configuration.all_buffers()
            }
            try:
                best = session.allocate(
                    capacity_limits=limits, budget_limits=budget_limits
                )
            except InfeasibleProblemError:
                # Definite answer for this bound.  Solver failures
                # (NumericalError, UnboundedProblemError, any other
                # SolverError) deliberately propagate.
                low = middle + 1
                continue
            high = middle
        return best
