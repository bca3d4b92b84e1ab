"""Joint budget and buffer-size allocation.

:class:`JointAllocator` is the top-level entry point of the library: it takes
a :class:`~repro.taskgraph.configuration.Configuration`, builds and solves the
SOCP of Algorithm 1, rounds the relaxed solution conservatively, verifies the
result with independent dataflow analyses, and returns a
:class:`~repro.taskgraph.configuration.MappedConfiguration`.

Multi-application workloads go through the same pipeline.  An allocation's
subject is a list of members ``(namespace, configuration)`` on one platform
(:class:`~repro.core.formulation.SocpFormulation` builds one block each): a
configuration is the one member ``("", configuration)``, a
:class:`~repro.taskgraph.workload.Workload` is its applications.  One block-structured program is solved, each member is
rounded at its own granularity, and the result is packaged by the subject's
kind: a configuration's one member mapping, or a
:class:`~repro.taskgraph.workload.MappedWorkload`
(:meth:`JointAllocator.allocate_workload`) with per-application
verification and budget-split reporting.

For families of related allocations — trade-off sweeps over
capacity/budget limits, admission events that change a workload's
membership — :meth:`JointAllocator.session` (or
:meth:`JointAllocator.workload_session`) returns an
:class:`AllocationSession`: each point is built at its own limits and
warm-started from the previous point's optimum, carried over by variable
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

from repro.obs.trace import span as obs_span
from repro.exceptions import (
    AllocationError,
    InfeasibleProblemError,
    ModelError,
    NumericalError,
    UnboundedProblemError,
)
from repro.core.formulation import SocpFormulation
from repro.core.objective import ObjectiveWeights
from repro.core.rounding import round_budgets, round_capacities
from repro.core.validation import VerificationReport, verify_mapping
from repro.solver.result import Solution, SolverStatus
from repro.taskgraph.configuration import Configuration, MappedConfiguration

if TYPE_CHECKING:  # sessions and workloads load on first use
    from repro.solver.parametric import SessionStats
    from repro.taskgraph.workload import MappedWorkload, Workload


def _phase_timings(solution: Solution, rounding_time: float) -> Dict[str, float]:
    """Per-phase wall-clock breakdown of one allocation.

    Combines the compile time recorded by :meth:`ConeProgram.solve`, the
    barrier backend's phase-I / centering split, and the rounding time
    measured by the allocator, all in seconds.  Reported through
    ``solver_info["timings"]`` and rendered by ``repro-map … --stats``.
    """
    return {
        "compile": float(solution.stats.get("compile_time", 0.0)),
        "phase1": float(solution.stats.get("phase1_time", 0.0)),
        "centering": float(solution.stats.get("centering_time", 0.0)),
        "rounding": float(rounding_time),
    }


@dataclass
class AllocatorOptions:
    """Options of the joint allocator."""

    backend: str = "auto"              #: solver backend passed to the cone program
    verify: bool = True                #: run independent verification after rounding
    run_simulation: bool = True        #: include self-timed simulation in verification


class JointAllocator:
    """Simultaneous computation of budgets and buffer capacities."""

    def __init__(
        self,
        weights: Optional[ObjectiveWeights] = None,
        options: Optional[AllocatorOptions] = None,
    ) -> None:
        self.weights = weights or ObjectiveWeights.prefer_budgets()
        self.options = options or AllocatorOptions()

    def allocate(
        self,
        configuration: Configuration,
        capacity_limits: Optional[Mapping[str, int]] = None,
        budget_limits: Optional[Mapping[str, float]] = None,
        weights: Optional[ObjectiveWeights] = None,
    ) -> MappedConfiguration:
        """Compute a mapped configuration that satisfies every throughput constraint.

        Parameters
        ----------
        configuration:
            The input configuration (validated before solving).
        capacity_limits, budget_limits:
            Optional additional upper bounds (per buffer / per task) used by
            trade-off sweeps.
        weights:
            Objective weighting; overrides the allocator-level default.

        Raises
        ------
        InfeasibleProblemError
            When no budgets/capacities satisfy the constraints.
        AllocationError
            When the rounded mapping unexpectedly fails verification.
        """
        with obs_span("allocate", configuration=configuration.name):
            return self._allocate(configuration, capacity_limits, budget_limits, weights)

    def allocate_workload(
        self,
        workload: Workload,
        capacity_limits: Optional[Mapping[str, Mapping[str, int]]] = None,
        budget_limits: Optional[Mapping[str, Mapping[str, float]]] = None,
        weights: Optional[ObjectiveWeights] = None,
    ) -> MappedWorkload:
        """Jointly allocate every application of a workload on the shared platform.

        One block-structured cone program is built and solved: per-application
        variables and throughput constraints, coupled only through the shared
        processor and memory capacity rows.  The result is rounded and
        verified per application (each with its own granularity and dataflow
        analyses) and packaged as a
        :class:`~repro.taskgraph.workload.MappedWorkload`.

        Parameters
        ----------
        workload:
            The input workload (validated before solving).
        capacity_limits, budget_limits:
            Optional *per-application* additional upper bounds: mappings from
            application name to the per-buffer / per-task limit maps
            :meth:`allocate` takes.
        weights:
            Objective weighting; overrides the allocator-level default.
        """
        with obs_span(
            "allocate-workload", workload=workload.name, applications=len(workload)
        ):
            return self._allocate(workload, capacity_limits, budget_limits, weights)

    def session(self, subject: Union[Configuration, Workload]) -> "AllocationSession":
        """Open a warm-started allocation session over a configuration (or workload).

        The session validates the subject once; each
        :meth:`AllocationSession.allocate` call solves the program at its
        limits, warm-starting from the previous point's optimum.  Use it for
        trade-off sweeps and any other family of related allocations.
        """
        return AllocationSession(self, subject)

    def workload_session(self, workload: Workload) -> "AllocationSession":
        """Open a warm-started allocation session over ``workload``.

        :meth:`session` over a workload: each :meth:`AllocationSession.allocate`
        call takes per-application limit maps, and the session's membership
        can be edited in place (:meth:`AllocationSession.add_application`).
        """
        return AllocationSession(self, workload)

    def _allocate(self, subject, capacity_limits, budget_limits, weights):
        subject.validate()
        formulation = SocpFormulation(
            subject,
            weights=weights or self.weights,
            capacity_limits=capacity_limits,
            budget_limits=budget_limits,
        )
        solution = formulation.solve(backend=self.options.backend)
        return self._finalize(subject, formulation, solution)

    def _finalize(
        self,
        subject: Union[Configuration, Workload],
        formulation: SocpFormulation,
        solution: Solution,
    ) -> Union[MappedConfiguration, MappedWorkload]:
        """Check, round per member, package and (optionally) verify one solution.

        Each member is rounded at its own granularity into a
        :class:`MappedConfiguration` carrying its share of the objective (its
        block's terms at the shared optimum, comparable to a stand-alone
        allocation of that member).  A configuration's result is its one
        member's mapping, with the joint objective and the solver information;
        a workload's wraps the members in a
        :class:`~repro.taskgraph.workload.MappedWorkload`.
        """
        self._check_status(solution, subject.name)
        solver_info = {
            "backend": solution.backend,
            "status": solution.status.value,
            "iterations": solution.iterations,
            "solve_time": solution.solve_time,
            "solve_stats": dict(solution.stats),
        }
        relaxed = [
            (block, block.extract_budgets(solution), block.extract_capacities(solution))
            for block in formulation.blocks
        ]
        members: Dict[str, MappedConfiguration] = {}
        with obs_span("rounding", applications=len(relaxed)) as rounding_span:
            for block, relaxed_budgets, relaxed_capacities in relaxed:
                members[block.namespace] = MappedConfiguration(
                    configuration=block.configuration,
                    budgets=round_budgets(
                        relaxed_budgets, block.configuration.granularity
                    ),
                    buffer_capacities=round_capacities(relaxed_capacities),
                    relaxed_budgets=relaxed_budgets,
                    relaxed_capacities=relaxed_capacities,
                    objective_value=block.objective_value(solution),
                    solver_info=dict(solver_info),
                )
        solver_info["timings"] = _phase_timings(solution, rounding_span.seconds)
        if isinstance(subject, Configuration):
            mapped = members[""]
            mapped.objective_value = solution.objective
            mapped.solver_info = solver_info
            verify, what = self.verify, "mapping"
        else:
            from repro.taskgraph.workload import MappedWorkload

            mapped = MappedWorkload(
                workload=subject,
                applications=members,
                objective_value=solution.objective,
                solver_info=solver_info,
            )
            verify, what = self.verify_workload, "workload mapping"
        if self.options.verify:
            with obs_span("verify") as verify_span:
                report = verify(mapped)
                verify_span.set(valid=report.is_valid)
            mapped.solver_info["verification"] = report.summary()
            if not report.is_valid:
                raise AllocationError(
                    f"the rounded {what} failed verification:\n" + report.summary()
                )
        return mapped

    def verify(self, mapped: MappedConfiguration) -> VerificationReport:
        """Verify a mapped configuration with independent dataflow analyses."""
        return verify_mapping(mapped, run_simulation=self.options.run_simulation)

    def verify_workload(self, mapped: MappedWorkload) -> VerificationReport:
        """Verify a mapped workload: every application plus the shared resources.

        Each application's mapping runs through the full independent
        verification (periodic schedule existence, self-timed simulation,
        value checks) against *its own* task graphs; on top of that, the
        budgets and buffer footprints summed over every application are
        checked against the shared processor and memory capacities — the
        coupling the per-application checks cannot see.
        """
        report = VerificationReport()
        for name, app_mapped in mapped.applications.items():
            app_report = self.verify(app_mapped)
            report.checked_graphs += app_report.checked_graphs
            for graph_name, period in app_report.minimum_periods.items():
                report.minimum_periods[f"{name}/{graph_name}"] = period
            for issue in app_report.issues:
                report.add_issue(f"application {name!r}: {issue}")
        platform = mapped.workload.platform
        for processor_name, processor in platform.processors.items():
            total = mapped.total_budget(processor_name) + processor.scheduling_overhead
            if total > processor.replenishment_interval + 1e-9:
                report.add_issue(
                    f"processor {processor_name!r}: the applications' budgets plus "
                    f"overhead use {total:.6g} of the replenishment interval "
                    f"{processor.replenishment_interval:.6g}"
                )
        for memory_name, memory in platform.memories.items():
            if not memory.is_bounded:
                continue
            usage = mapped.total_storage(memory_name)
            if usage > memory.capacity + 1e-9:
                report.add_issue(
                    f"memory {memory_name!r}: the applications' buffers use "
                    f"{usage:.6g} of only {memory.capacity:.6g} available"
                )
        return report

    @staticmethod
    def _check_status(solution: Solution, name: str) -> None:
        if solution.status is SolverStatus.OPTIMAL:
            return
        if solution.status is SolverStatus.INFEASIBLE:
            raise InfeasibleProblemError(
                f"no budgets and buffer capacities satisfy the throughput "
                f"requirements of {name!r} within its "
                f"processor and memory capacities"
            )
        if solution.status is SolverStatus.UNBOUNDED:
            raise UnboundedProblemError(
                f"the optimisation problem for {name!r} "
                f"is unbounded; check the objective weights"
            )
        raise NumericalError(
            f"the solver failed on {name!r}: "
            f"{solution.status.value} ({solution.message})"
        )


class AllocationSession:
    """Warm-started allocation over one configuration or workload.

    Created through :meth:`JointAllocator.session` (or
    :meth:`JointAllocator.workload_session`).  Every :meth:`allocate` call
    solves the subject's program at its own limits — a limited point is
    built and compiled afresh, the unlimited program is built once per
    membership — and seeds the barrier method with the previous point's
    optimum, carried over by variable name, so that phase I is skipped
    whenever that point is still strictly feasible.  A cold point starts at
    the model-built start of its own limits.

    :meth:`allocate` has the contract of :meth:`JointAllocator.allocate` for
    a configuration (flat per-buffer / per-task limit maps) and of
    :meth:`JointAllocator.allocate_workload` for a workload
    (*per-application* limit maps).  A workload session's membership can
    also be edited in place (:meth:`add_application`,
    :meth:`remove_application`, :meth:`replace_application`).
    """

    def __init__(
        self, allocator: JointAllocator, subject: Union[Configuration, Workload]
    ) -> None:
        from repro.solver.parametric import SolveSession

        subject.validate()
        self.allocator = allocator
        self.subject = subject
        self._session = SolveSession(backend=allocator.options.backend)
        self._unlimited = self._build()

    def _build(self, capacity_limits=None, budget_limits=None):
        """The subject's formulation at these limits, its compiled program
        and its model-built start point."""
        formulation = SocpFormulation(
            self.subject,
            weights=self.allocator.weights,
            capacity_limits=capacity_limits,
            budget_limits=budget_limits,
        )
        compiled = formulation.build().compile()
        start = formulation.initial_point()
        self._session.stats.compiles += 1
        return formulation, compiled, start

    @property
    def stats(self) -> SessionStats:
        """Aggregate solve statistics across every point of the session."""
        return self._session.stats

    def _adopt_stats(self, stats: SessionStats) -> None:
        """Continue accumulating into a predecessor session's statistics."""
        stats.compiles += self._session.stats.compiles
        self._session.stats = stats

    def allocate(
        self,
        capacity_limits: Optional[Mapping] = None,
        budget_limits: Optional[Mapping] = None,
    ) -> Union[MappedConfiguration, MappedWorkload]:
        """Solve for one set of limits, warm-started from the previous point."""
        with obs_span("allocate", subject=self.subject.name):
            if capacity_limits or budget_limits:
                point = self._build(capacity_limits, budget_limits)
            else:
                point = self._unlimited
            formulation, compiled, start = point
            solution = self._session.solve(compiled, start)
            return self.allocator._finalize(self.subject, formulation, solution)

    # -- incremental workload editing -------------------------------------------
    def add_application(self, name: str, configuration: Configuration) -> None:
        """Admit one application into the running session.

        The application joins the session's workload, the combined-load
        screens re-run (the workload — and the session — are left untouched
        when they fail), and the session's program is rebuilt from the edited
        workload.  The next :meth:`allocate` warm-starts from the previous
        optimum by variable name; the added application starts at its
        model-built values.
        """
        self._edit(lambda: self.subject.add_application(name, configuration))

    def remove_application(self, name: str) -> None:
        """Retire one application from the running session (the departure case).

        The previous optimum restricted to the surviving variables stays
        strictly feasible (the shared capacity rows only got more slack), so
        the next :meth:`allocate` typically skips phase I.
        """
        workload = self._workload()
        if name in workload.application_names and len(workload) <= 1:
            raise ModelError(
                f"cannot remove {name!r}: a workload session needs at least one "
                f"application (discard the session instead)"
            )
        # No re-validation: any sub-workload of a valid workload is valid
        # (removal only relaxes the combined-load screens).
        self._edit(lambda: workload.remove_application(name), validate=False)

    def replace_application(self, name: str, configuration: Configuration) -> None:
        """Swap one application's configuration in place (reconfiguration).

        The workload is restored and the session left untouched when the
        replacement fails the load screens.
        """
        self._edit(lambda: self.subject.replace_application(name, configuration))

    def _edit(self, mutate, validate: bool = True) -> None:
        """Apply one membership edit transactionally.

        The workload mutates first, then the load screens re-run and the
        program rebuilds.  *Any* failure along the way — a screen rejection,
        but also an error while building or compiling the new formulation —
        restores the exact previous membership (order included) and leaves
        the session untouched, so a failed edit can never leave the workload
        and the program describing different memberships.  On success the
        warm state forgets the variables the edit removed.
        """
        workload = self._workload()
        snapshot = dict(workload._applications)
        try:
            mutate()
            if validate:
                workload.validate()
            self._unlimited = self._build()
        except BaseException:
            workload._applications.clear()
            workload._applications.update(snapshot)
            raise
        self._session.keep(var.name for var in self._unlimited[1].variables)

    def _workload(self) -> Workload:
        """The session's workload: a configuration has no membership to edit."""
        if isinstance(self.subject, Configuration):
            raise ModelError(
                f"the session over configuration {self.subject.name!r} has no "
                f"applications to edit; open a workload session instead"
            )
        return self.subject


def allocate(
    configuration: Configuration,
    weights: Optional[ObjectiveWeights] = None,
    backend: str = "auto",
    verify: bool = True,
) -> MappedConfiguration:
    """Functional convenience wrapper around :class:`JointAllocator`."""
    options = AllocatorOptions(backend=backend, verify=verify)
    allocator = JointAllocator(weights=weights, options=options)
    return allocator.allocate(configuration)


def allocate_workload(
    workload: Workload,
    weights: Optional[ObjectiveWeights] = None,
    backend: str = "auto",
    verify: bool = True,
) -> MappedWorkload:
    """Functional convenience wrapper around
    :meth:`JointAllocator.allocate_workload`."""
    options = AllocatorOptions(backend=backend, verify=verify)
    allocator = JointAllocator(weights=weights, options=options)
    return allocator.allocate_workload(workload)
