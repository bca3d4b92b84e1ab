"""The SOCP formulation of Algorithm 1, assembled from per-application blocks.

Given a configuration, :class:`SocpFormulation` builds the second-order cone
program of the paper:

* **Variables** — per task ``w``: the relaxed budget ``β'(w)`` and the
  reciprocal-budget variable ``λ(w)``; per buffer ``b``: the relaxed capacity
  ``γ'(b)`` (the paper's ``δ'`` of the space queue is ``γ'(b) − ι(b)``); per
  SRDF actor ``v``: a start time ``s(v)`` (one reference actor per weakly
  connected component is pinned to 0 to remove the translation symmetry).
* **Constraint (6)** for every queue in E1 (the task-internal queues):
  ``s(v_i2) ≥ s(v_i1) + ̺(π(w_i)) − β'(w_i)``.
* **Constraint (7)** for every queue in E2 (self-loops, data and space
  queues): ``s(v_j) ≥ s(v_i) + ̺(π(w_i))·χ(w_i)·λ(w_i) − δ(e_ij)·µ``.
* **Constraint (8)**: ``λ(w_i)·β'(w_i) ≥ 1`` — the only non-affine (rotated
  second-order cone) constraint.
* **Constraint (9)** per processor: budgets, one granule of rounding slack per
  task, and the scheduling overhead fit in the replenishment interval.
* **Constraint (10)** per bounded memory: the relaxed capacities plus one
  container of rounding slack per buffer fit in the memory.
* **Objective (5)**: minimise the weighted sum of budgets and capacities.

Block structure
---------------

The program is not built monolithically: it is assembled over the members
of a subject, ``(namespace, configuration)`` pairs on one platform
(:func:`_subject_members`).  Every member contributes one
:class:`FormulationBlock` holding its variables, its cone constraints
(Constraints (6)–(8)) and its objective terms, all namespaced per member.
The members are coupled **only** through the shared capacity rows —
Constraint (9) per processor and Constraint (10) per bounded memory — which
the assembler sums over every block.  A configuration is the one member
``("", configuration)``, so its variable and constraint names carry no
prefix; a :class:`~repro.taskgraph.workload.Workload` is its applications.
:class:`SocpFormulation` builds either, at any capacity and budget limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import FormulationError, InfeasibleProblemError, ModelError
from repro.core.objective import ObjectiveWeights
from repro.dataflow.construction import (
    SrdfSpecification,
    build_srdf_specification,
    queue_token_terms,
)
from repro.solver.problem import AffineRows, ConeProgram, RowWriter
from repro.solver.variable import Variable
from repro.solver.result import Solution
from repro.taskgraph.configuration import Configuration
from repro.taskgraph.platform import Platform
from repro.taskgraph.task import effective_cycles

if TYPE_CHECKING:  # workloads load on first use
    from repro.taskgraph.workload import Workload


@dataclass
class FormulationVariables:
    """Handles to the decision variables of the SOCP, keyed by model names.

    ``start_times`` maps every SRDF actor to its start-time variable, or to
    ``None`` for the reference actor of a weak component, pinned to 0.
    """

    budgets: Dict[str, Variable] = field(default_factory=dict)
    reciprocals: Dict[str, Variable] = field(default_factory=dict)
    capacities: Dict[str, Variable] = field(default_factory=dict)
    start_times: Dict[str, Optional[Variable]] = field(default_factory=dict)


# -- shared bound arithmetic -------------------------------------------------------
def effective_budget_bounds(
    configuration: Configuration,
    graph,
    task,
    budget_limits: Mapping[str, float],
    period_cycles: Optional[float] = None,
) -> Tuple[float, float]:
    """The effective ``β'(w)`` bounds under ``budget_limits``.

    The single definition of the budget-bound arithmetic, used by block
    assembly at build time; contradictory bounds raise
    :class:`InfeasibleProblemError`.  ``period_cycles`` is the task's ``graph.period_cycles`` when the caller
    already has it.

    ``β'(w) ≥ ̺·χ/µ`` is implied by Constraints (7)+(8) on the self-loop;
    stating it as a bound tightens the relaxation the solver works with
    without changing the optimum.
    """
    processor = configuration.platform.processor(task.processor)
    rho = processor.replenishment_interval
    if period_cycles is None:
        period_cycles = graph.period_cycles(task.name, processor)
    lower = rho * period_cycles / graph.period
    if task.min_budget is not None:
        lower = max(lower, task.min_budget)
    upper = processor.allocatable_capacity - configuration.granularity
    if task.max_budget is not None:
        upper = min(upper, task.max_budget)
    if task.name in budget_limits:
        upper = min(upper, float(budget_limits[task.name]))
    if upper < lower - 1e-12:
        raise InfeasibleProblemError(
            f"task {task.name!r}: the budget upper bound {upper:.6g} is "
            f"below the lower bound {lower:.6g} implied by the throughput "
            f"requirement"
        )
    return lower, upper


def effective_capacity_bounds(
    buffer, default_bound: float, capacity_limits: Mapping[str, int]
) -> Tuple[float, float]:
    """The effective ``γ'(b)`` bounds under ``capacity_limits``.

    The capacity counterpart of :func:`effective_budget_bounds`.
    """
    lower = float(buffer.smallest_feasible_capacity)
    upper = default_bound + buffer.initial_tokens
    if buffer.max_capacity is not None:
        upper = min(upper, float(buffer.max_capacity))
    if buffer.name in capacity_limits:
        upper = min(upper, float(capacity_limits[buffer.name]))
    if upper < lower - 1e-12:
        raise InfeasibleProblemError(
            f"buffer {buffer.name!r}: the capacity upper bound {upper:.6g} "
            f"is below the smallest feasible capacity {lower:.6g}"
        )
    return lower, upper


def sufficient_capacity_bound(configuration: Configuration, graph) -> float:
    """A buffer capacity that is always enough for this task graph.

    Any simple cycle of the constructed SRDF graph visits each firing
    copy's actor pair at most once.  Task ``w`` has ``q(w)·P(w)`` copies;
    each adds at most ``̺(p)`` of waiting, and at the throughput-implied
    budget lower bound their executions together take at most ``µ``.  A
    space queue carries its tokens in iterations of ``T``, the tokens the
    buffer moves per graph iteration, so a capacity of
    ``(⌈Σ(q(w)·P(w)·̺(p) + µ)/µ⌉ + 1)·max T`` satisfies Constraint (1) on
    every cycle through it regardless of the other variables.  Capping
    capacities at this value (plus the initial tokens) never cuts off the
    optimum while keeping the feasible region bounded.  At single rate it
    is ``⌈Σ(̺(p) + µ)/µ⌉ + 1``.

    Raises :class:`~repro.exceptions.ModelError` when the bound overflows a
    float: each duration is bounded, but a tiny ``period`` against large
    ``replenishment_interval`` values is not.
    """
    repetitions = graph.repetition_vector
    total = 0.0
    for task in graph.tasks:
        processor = configuration.platform.processor(task.processor)
        copies = repetitions[task.name] * task.phase_count
        total += copies * processor.replenishment_interval + graph.period
    iteration_factor = max(
        (
            repetitions[buffer.source] * buffer.total_production
            for buffer in graph.buffers
        ),
        default=1,
    )
    return _periods_covering(graph, total, iteration_factor)


def _periods_covering(graph, total: float, factor: int) -> float:
    """``(⌈total / period⌉ + 1)·factor``, which must be a finite float."""
    ratio = total / graph.period
    if math.isfinite(ratio):
        bound = (math.ceil(ratio) + 1.0) * factor
        if math.isfinite(bound):
            return bound
    raise ModelError(
        f"task graph {graph.name!r}: period {graph.period:g} is too short "
        f"against the replenishment_interval of its processors: the sufficient "
        f"buffer capacity bound ({total:g} over the period) overflows"
    )


@dataclass
class _GraphFacts:
    """Per-graph quantities the block reads for every task and queue.

    Computed once per graph, when the block creates its variables.
    """

    period_cycles: Dict[str, float]   #: per task, ``graph.period_cycles``
    capacity_bound: float             #: :func:`sufficient_capacity_bound`


# -- the start point ------------------------------------------------------------
#: Shares of each processor's and bounded memory's slack the start point
#: hands out (the rows (9)/(10) keep the rest).  The first share suits most
#: models; when a cycle of Constraints (6)/(7) has no slack at it (small
#: capacity limits), the next shares buy the cycle slack with larger budgets
#: and capacities.
_START_SHARES = (0.5, 0.9, 0.99)
#: Where the start point puts ``λ`` between ``1/β'`` and its bound ``µ/(̺·χ)``.
_RECIPROCAL_SHARE = 0.2
#: Row slack the start times keep on Constraints (6)/(7), in periods spread
#: evenly over a graph's actors; each of ``_MARGIN_TIERS`` tries takes a
#: quarter of the previous one's margin when a cycle leaves less slack.
_START_MARGIN = 4.0
_MARGIN_TIERS = 6


def _slack_share(slack: float, room: float, share: float) -> float:
    """The fraction of their intervals the variables of one resource row take.

    ``slack`` is the row's slack with every variable at its lower bound and
    ``room`` the (weighted) sum of their interval widths.  The variables
    take ``share`` of the slack, and never more than ``share`` of their
    intervals; a row without slack gives 0 (lower bounds), where no start
    is strictly feasible.
    """
    if slack >= room:
        return share
    if slack <= 0.0:
        return 0.0
    return share * slack / room


def _longest_paths(
    actors: Sequence[str], edges: Sequence[Tuple[str, str, float]], margin: float
) -> Tuple[Dict[str, float], bool]:
    """Longest-path (Bellman–Ford) potentials of the difference rows
    ``s_j ≥ s_i + weight + margin`` over ``(i, j, weight)`` edges, every
    potential starting at 0, and whether they settled within ``|V|``
    passes (they do not on a cycle of positive weight).
    """
    potential = dict.fromkeys(actors, 0.0)
    for _ in range(len(potential)):
        changed = False
        for source, target, weight in edges:
            candidate = potential[source] + weight + margin
            if candidate > potential[target]:
                potential[target] = candidate
                changed = True
        if not changed:
            return potential, True
    return potential, False


#: One row of Constraints (6)/(7): ``(s_i, s_j, columns, coefficients,
#: constant, name)`` (:meth:`FormulationBlock._precedence_queues`).
_PrecedenceRow = Tuple[str, str, List[int], List[float], float, str]


class FormulationBlock:
    """The per-application slice of the cone program.

    A block owns everything that is private to one application: its decision
    variables (budgets, reciprocals, capacities, start times), the precedence
    and hyperbolic constraints of its SRDF graphs, and its objective terms.
    Variable and constraint names are qualified with the block's ``namespace``
    (empty for the single-configuration case, the application name in
    workloads), so blocks from different applications never collide even when
    their task names do.

    Constraints are written as rows over variable positions
    (:meth:`ConeProgram.add_rows <repro.solver.problem.ConeProgram.add_rows>`):
    Constraints (6)/(7) straight from the SRDF queue table, one row per
    queue, and Constraint (8) as ``(λ, β')`` column pairs.  Blocks expose
    their per-resource columns (:meth:`processor_budget_columns`,
    :meth:`memory_capacity_columns`) so the assembler can join them through
    the shared capacity rows — the only coupling between applications.
    """

    def __init__(
        self,
        configuration: Configuration,
        weights: ObjectiveWeights,
        capacity_limits: Optional[Mapping[str, int]] = None,
        budget_limits: Optional[Mapping[str, float]] = None,
        namespace: str = "",
    ) -> None:
        self.configuration = configuration
        self.weights = weights
        self.capacity_limits = dict(capacity_limits or {})
        self.budget_limits = dict(budget_limits or {})
        self.namespace = namespace
        self.specifications: Dict[str, SrdfSpecification] = {
            graph.name: build_srdf_specification(graph)
            for graph in configuration.task_graphs
        }
        self.variables = FormulationVariables()
        self._facts: Dict[str, _GraphFacts] = {}
        #: variable positions in the program: per task ``(β', λ)``, per
        #: buffer ``γ'``, per actor its start time (``-1``: pinned to 0)
        self._task_columns: Dict[str, Tuple[int, int]] = {}
        self._capacity_columns: Dict[str, int] = {}
        self._start_columns: Dict[str, int] = {}
        #: per actor, the pinned reference actor of its weak component
        self._references: Dict[str, str] = {}
        self._precedence: Optional[Dict[str, List[_PrecedenceRow]]] = None

    def qualify(self, name: str) -> str:
        """The program-level (namespaced) name of a model entity."""
        return f"{self.namespace}/{name}" if self.namespace else name

    def facts(self, graph) -> _GraphFacts:
        """The graph's per-task period cycles and capacity bound, cached
        (the graph is immutable)."""
        facts = self._facts.get(graph.name)
        if facts is None:
            platform = self.configuration.platform
            facts = _GraphFacts(
                period_cycles={
                    task.name: graph.period_cycles(
                        task.name, platform.processor(task.processor)
                    )
                    for task in graph.tasks
                },
                capacity_bound=sufficient_capacity_bound(self.configuration, graph),
            )
            self._facts[graph.name] = facts
        return facts

    # -- variable creation -------------------------------------------------------
    def add_task_variables(self, program: ConeProgram) -> None:
        configuration = self.configuration
        for graph in configuration.task_graphs:
            cycles = self.facts(graph).period_cycles
            for task in graph.tasks:
                processor = configuration.platform.processor(task.processor)
                rho = processor.replenishment_interval
                lower, upper = effective_budget_bounds(
                    configuration,
                    graph,
                    task,
                    self.budget_limits,
                    period_cycles=cycles[task.name],
                )
                column = program.num_variables
                beta = program.add_variable(
                    f"beta[{self.qualify(task.name)}]", lower=lower, upper=upper
                )
                lam = program.add_variable(
                    f"lambda[{self.qualify(task.name)}]",
                    lower=1.0 / max(upper, 1e-12),
                    upper=graph.period / (rho * cycles[task.name]),
                )
                self.variables.budgets[task.name] = beta
                self.variables.reciprocals[task.name] = lam
                self._task_columns[task.name] = (column, column + 1)

    def add_capacity_variables(self, program: ConeProgram) -> None:
        for graph in self.configuration.task_graphs:
            default_bound = self.facts(graph).capacity_bound
            for buffer in graph.buffers:
                lower, upper = effective_capacity_bounds(
                    buffer, default_bound, self.capacity_limits
                )
                self._capacity_columns[buffer.name] = program.num_variables
                capacity = program.add_variable(
                    f"capacity[{self.qualify(buffer.name)}]", lower=lower, upper=upper
                )
                self.variables.capacities[buffer.name] = capacity

    def add_start_time_variables(self, program: ConeProgram) -> None:
        """One start-time variable per actor, pinning one per weak component.

        Start times only appear in difference constraints, so each weakly
        connected component of the SRDF graph has a translation symmetry;
        pinning one actor per component to 0 removes it (the objective does
        not involve start times, so no optimality is lost).
        """
        for spec in self.specifications.values():
            for reference, *others in spec.components():
                self.variables.start_times[reference] = None
                self._start_columns[reference] = -1
                self._references[reference] = reference
                for actor_name in others:
                    self._references[actor_name] = reference
                    self._start_columns[actor_name] = program.num_variables
                    self.variables.start_times[actor_name] = program.add_variable(
                        f"s[{self.qualify(actor_name)}]"
                    )

    # -- constraints -----------------------------------------------------------------
    def _precedence_queues(self) -> Dict[str, List[_PrecedenceRow]]:
        """Constraints (6) and (7) per graph, one row per SRDF queue, cached.

        * (6), queue set E1: ``s_i − β' − s_j + ̺ ≤ 0``;
        * (7), queue set E2: ``s_i + ̺·χ·λ − µ·δ(e) − s_j ≤ 0``, with χ the
          effective (type/speed/phase-resolved) cycle count of the source
          copy — exactly ``task.wcet`` for plain models — and ``δ(e)`` from
          :func:`~repro.dataflow.construction.queue_token_terms`.

        Each row is ``(s_i, s_j, columns, coefficients, constant, name)``:
        the actors of its start times and its terms over ``β'``, ``λ`` and
        ``γ'``.  The rows depend only on the model and the variable
        positions, so :meth:`write_precedence_rows` and the start point
        read the same ones.
        """
        if self._precedence is not None:
            return self._precedence
        platform = self.configuration.platform
        prefix = self.qualify("")
        self._precedence = {}
        for graph_name, spec in self.specifications.items():
            graph = self.configuration.task_graph(graph_name)
            period = graph.period
            #: per (task, phase): ``((β', λ) columns, ̺, ̺·χ)``
            sources: Dict[Tuple[str, Optional[int]], tuple] = {}
            rows: List[_PrecedenceRow] = []
            for queue in spec.queues:
                key = (queue.source_task, queue.source_phase)
                source_facts = sources.get(key)
                if source_facts is None:
                    task = graph.task(queue.source_task)
                    processor = platform.processor(task.processor)
                    rho = processor.replenishment_interval
                    source_facts = sources[key] = (
                        self._task_columns[task.name],
                        rho,
                        float(rho * effective_cycles(task, processor, queue.source_phase)),
                    )
                (beta, lam), rho, rho_chi = source_facts
                if queue.in_queue_set_e1:
                    columns, coefficients = [beta], [-1.0]
                    constant = float(rho)
                    name = f"e1[{prefix}{queue.name}]"
                else:
                    columns, coefficients = [lam], [rho_chi]
                    buffer, scale, offset = queue_token_terms(queue)
                    coefficient = (scale * period) * -1.0
                    if buffer is not None and coefficient != 0.0:
                        columns.append(self._capacity_columns[buffer])
                        coefficients.append(coefficient)
                    constant = 0.0 + (offset * period) * -1.0
                    name = f"e2[{prefix}{queue.name}]"
                rows.append(
                    (queue.source, queue.target, columns, coefficients, constant, name)
                )
            self._precedence[graph_name] = rows
        return self._precedence

    def write_precedence_rows(self, rows: RowWriter) -> None:
        """Constraints (6) and (7), one row ``expr ≤ 0`` per SRDF queue
        (:meth:`_precedence_queues`).

        A self-loop's start times cancel.  The terms of each row are in the
        order ``s_i``, then ``β'`` or ``λ`` and ``γ'``, then ``s_j``.
        """
        starts = self._start_columns
        columns, values = rows.columns, rows.values
        for queues in self._precedence_queues().values():
            for source, target, terms, coefficients, constant, name in queues:
                first = len(columns)
                loop = source == target
                if not loop and starts[source] >= 0:
                    columns.append(starts[source])
                    values.append(1.0)
                columns.extend(terms)
                values.extend(coefficients)
                if not loop and starts[target] >= 0:
                    columns.append(starts[target])
                    values.append(-1.0)
                rows.constants.append(constant)
                rows.names.append(name)
                rows.lengths.append(len(columns) - first)

    def reciprocal_pairs(self) -> List[Tuple[int, int, str]]:
        """Constraint (8), ``λ·β' ≥ 1``: per task its ``(λ, β')`` columns
        and the constraint name."""
        prefix = self.qualify("")
        return [
            (lam, beta, f"recip[{prefix}{task_name}]")
            for task_name, (beta, lam) in self._task_columns.items()
        ]

    # -- coupling contributions ---------------------------------------------------
    def processor_budget_columns(self, processor_name: str) -> Tuple[List[int], float]:
        """This block's contribution to Constraint (9) on one processor.

        Returns the columns of the block's budgets on the processor and the
        constant slack they carry (one granule of rounding slack per task,
        at *this application's* granularity).
        """
        tasks = self.configuration.tasks_on_processor(processor_name)
        columns = [self._task_columns[task.name][0] for task in tasks]
        return columns, self.configuration.granularity * len(tasks)

    def memory_capacity_columns(self, memory_name: str) -> List[Tuple[int, float]]:
        """This block's contribution to Constraint (10) on one memory: the
        ``(capacity column, container size)`` of each of its buffers there.

        Each buffer also pre-charges one container for the conservative
        rounding of its capacity.
        """
        return [
            (self._capacity_columns[buffer.name], float(buffer.container_size))
            for buffer in self.configuration.buffers_in_memory(memory_name)
        ]

    def objective_terms(self) -> List[Tuple[Variable, float]]:
        """This block's terms of Objective (5), as ``(variable, coefficient)``."""
        terms: List[Tuple[Variable, float]] = []
        for graph in self.configuration.task_graphs:
            for task in graph.tasks:
                coefficient = self.weights.budget_coefficient(task)
                if coefficient:
                    terms.append((self.variables.budgets[task.name], float(coefficient)))
            for buffer in graph.buffers:
                coefficient = self.weights.capacity_coefficient(buffer)
                if coefficient:
                    terms.append(
                        (self.variables.capacities[buffer.name], float(coefficient))
                    )
        return terms

    def objective_value(self, solution: Solution) -> float:
        """This block's share of Objective (5) at a solution.

        The per-application objective is well defined because every objective
        term belongs to exactly one block; the shares sum to the joint
        optimum.
        """
        return sum(
            coefficient * solution.value(variable)
            for variable, coefficient in self.objective_terms()
        )

    # -- start point and extraction --------------------------------------------
    def initial_point_into(
        self,
        values: Dict[Variable, float],
        budget_shares: Mapping[str, float],
        capacity_shares: Mapping[str, Optional[float]],
    ) -> bool:
        """Write this block's part of the model-built start point into ``values``.

        ``budget_shares`` (per processor) and ``capacity_shares`` (per
        memory) give the fraction of each ``β'`` and ``γ'`` interval the
        value takes, as :meth:`SocpFormulation.initial_point` derives them
        from the slack of Constraints (9) and (10).  A capacity in an
        unbounded memory (share ``None``) sits half a container below its
        upper bound, where its space queue carries the most tokens (or at
        the midpoint of an interval narrower than one container).  Each
        ``λ`` sits ``_RECIPROCAL_SHARE`` of the way from ``1/β'`` to its
        bound ``µ/(̺·χ)``, so Constraint (8) and the self-loop rows hold
        strictly.

        The start times are longest-path (Bellman–Ford) potentials of the
        graph's Constraints (6)/(7) at those values, each row's weight
        raised by a margin (see ``_START_MARGIN``), shifted so that each
        weak component's pinned reference actor sits at 0.  Returns whether
        they settled for every graph: when even the smallest margin leaves
        a cycle of positive weight, the potentials stop after ``|V|`` passes
        and some row is violated.
        """
        point: Dict[int, float] = {}
        settled_everywhere = True
        for graph in self.configuration.task_graphs:
            for task in graph.tasks:
                beta_var = self.variables.budgets[task.name]
                lam_var = self.variables.reciprocals[task.name]
                share = budget_shares[task.processor]
                beta = beta_var.lower + share * (beta_var.upper - beta_var.lower)
                floor = 1.0 / beta
                lam = floor + _RECIPROCAL_SHARE * (lam_var.upper - floor)
                values[beta_var] = beta
                values[lam_var] = lam
                beta_column, lam_column = self._task_columns[task.name]
                point[beta_column] = beta
                point[lam_column] = lam
            for buffer in graph.buffers:
                cap_var = self.variables.capacities[buffer.name]
                share = capacity_shares[buffer.memory]
                width = cap_var.upper - cap_var.lower
                if share is None:
                    capacity = cap_var.upper - min(0.5, 0.5 * width)
                else:
                    capacity = cap_var.lower + share * width
                values[cap_var] = capacity
                point[self._capacity_columns[buffer.name]] = capacity
        for spec_name, rows in self._precedence_queues().items():
            spec = self.specifications[spec_name]
            edges = [
                (
                    source,
                    target,
                    sum(c * point[column] for column, c in zip(columns, coefficients))
                    + constant,
                )
                for source, target, columns, coefficients, constant, _ in rows
                if source != target
            ]
            for tier in range(_MARGIN_TIERS):
                margin = _START_MARGIN * spec.period / (len(spec.actors) * 4.0**tier)
                potential, settled = _longest_paths(spec.actor_names(), edges, margin)
                if settled:
                    break
            settled_everywhere &= settled
            for actor, value in potential.items():
                start = self.variables.start_times[actor]
                if start is not None:
                    values[start] = value - potential[self._references[actor]]
        return settled_everywhere

    def extract_budgets(self, solution: Solution) -> Dict[str, float]:
        """Relaxed budgets ``β'(w)`` at a solution, keyed by bare task names."""
        return {
            name: solution.value(var) for name, var in self.variables.budgets.items()
        }

    def extract_capacities(self, solution: Solution) -> Dict[str, float]:
        """Relaxed capacities ``γ'(b)`` at a solution, keyed by bare buffer names."""
        return {
            name: solution.value(var)
            for name, var in self.variables.capacities.items()
        }

    def extract_start_times(self, solution: Solution) -> Dict[str, float]:
        """Start times ``s(v)`` of this block's SRDF actors at a solution."""
        return {
            name: 0.0 if var is None else solution.value(var)
            for name, var in self.variables.start_times.items()
        }


def _subject_members(
    subject: Union[Configuration, Workload],
) -> List[Tuple[str, Configuration]]:
    """The members of a configuration or a workload.

    A configuration is the one member ``("", configuration)``, so its
    variable and row names are unqualified; a workload's
    members are its applications, namespaced by their names.
    """
    if isinstance(subject, Configuration):
        return [("", subject)]
    return [
        (application.name, application.configuration)
        for application in subject.applications
    ]


def _member_limits(
    subject: Union[Configuration, Workload], limits: Optional[Mapping]
) -> Dict[str, Dict[str, float]]:
    """Limits in ``subject``'s own shape, keyed by member.

    A configuration takes one per-buffer (or per-task) map, its one member's;
    a workload takes one such map per application, and a map naming an
    application the workload does not have raises :class:`FormulationError`.
    """
    if not limits:
        return {}
    if isinstance(subject, Configuration):
        return {"": dict(limits)}
    known = set(subject.application_names)
    unknown = sorted(set(limits) - known)
    if unknown:
        raise FormulationError(
            f"limits reference unknown application(s) {unknown}; workload "
            f"{subject.name!r} has {sorted(known)}"
        )
    return {name: dict(values) for name, values in limits.items()}


class SocpFormulation:
    """Builder of the joint budget / buffer-size cone program (Algorithm 1).

    The program is assembled over the members of its subject
    (:func:`_subject_members`), one :class:`FormulationBlock` each: a
    configuration is the one-block case with an empty namespace, so its
    names are ``beta[task]``, ``capacity[buf]``, ``s[actor]``; a workload
    contributes one block per application, namespaced by the application
    name.  The assembler adds every block's variables and cone constraints,
    then joins the blocks through the shared capacity rows (Constraints (9)
    and (10)) and the summed objective.

    ``capacity_limits`` and ``budget_limits`` are optional upper bounds on
    the capacities (containers) and budgets *in addition to* those stored on
    the buffers and tasks, in the subject's own shape
    (:func:`_member_limits`): per-buffer / per-task maps for a configuration,
    per-application maps of them for a workload.  The trade-off sweeps of the
    paper's experiments use them.  ``weights`` defaults to the weights stored
    on the tasks and buffers themselves.
    """

    def __init__(
        self,
        subject: Union[Configuration, Workload],
        weights: Optional[ObjectiveWeights] = None,
        capacity_limits: Optional[Mapping] = None,
        budget_limits: Optional[Mapping] = None,
        name: Optional[str] = None,
    ) -> None:
        self.subject = subject
        self.weights = weights or ObjectiveWeights()
        self.platform: Platform = subject.platform
        self.name = name or f"socp[{subject.name}]"
        capacity_limits = _member_limits(subject, capacity_limits)
        budget_limits = _member_limits(subject, budget_limits)
        self.blocks = [
            FormulationBlock(
                configuration,
                self.weights,
                capacity_limits=capacity_limits.get(namespace),
                budget_limits=budget_limits.get(namespace),
                namespace=namespace,
            )
            for namespace, configuration in _subject_members(subject)
        ]
        self.program = ConeProgram(name=self.name)
        self._built = False

    # -- public API ------------------------------------------------------------
    def build(self) -> ConeProgram:
        """Construct the cone program; idempotent.

        Each block's variables are registered together (tasks, capacities,
        start times per member) so that every member occupies one contiguous
        variable index range; the partition is declared to the program
        (:meth:`ConeProgram.declare_blocks`) and compiles into the
        :class:`~repro.solver.problem.BlockStructure` the barrier solver's
        structured Newton path keys off.
        """
        if self._built:
            return self.program
        groups: List[Tuple[Variable, ...]] = []
        for block in self.blocks:
            first = self.program.num_variables
            block.add_task_variables(self.program)
            block.add_capacity_variables(self.program)
            block.add_start_time_variables(self.program)
            groups.append(self.program.variable_slice(first))
        precedence = RowWriter()
        for block in self.blocks:
            block.write_precedence_rows(precedence)
        precedence.add_to(self.program)
        pairs = [pair for block in self.blocks for pair in block.reciprocal_pairs()]
        self.program.add_hyperbolic_rows(
            AffineRows.unit([lam for lam, _, _ in pairs]),
            AffineRows.unit([beta for _, beta, _ in pairs]),
            np.ones(len(pairs)),
            [name for _, _, name in pairs],
        )
        self._add_coupling_rows()
        self._set_objective()
        self.program.declare_blocks(groups)
        self._built = True
        return self.program

    def initial_point(self) -> Dict[Variable, float]:
        """A start point built from the model: strictly feasible whenever
        every row has slack, so a cold solve skips phase I.

        Each processor row (9) has ``̺ − overhead − Σ granules − Σ β'_lower``
        of slack with its budgets (of every application) at their lower
        bounds.  The budgets take a share of it, split in proportion to
        their intervals ``β'_upper − β'_lower`` and never more than that
        share of their own interval, so each budget stays strictly inside
        its bounds and the row keeps the rest.  Bounded memory rows (10)
        split their slack among their capacities the same way.
        :meth:`FormulationBlock.initial_point_into` then places every value
        and the start times.  The share is the first of ``_START_SHARES``
        at which every graph's start times settle.  When a row has no slack
        at any share (tight limits, pinned bounds) the point is not
        strictly feasible, and the barrier solver runs phase I from it.
        """
        if not self._built:
            self.build()
        variables = self.program.variables
        #: per processor and bounded memory: ``(slack, room)`` of its row
        processors: Dict[str, Tuple[float, float]] = {}
        for processor_name, processor in self.platform.processors.items():
            slack = processor.replenishment_interval - processor.scheduling_overhead
            room = 0.0
            for block in self.blocks:
                columns, granules = block.processor_budget_columns(processor_name)
                slack -= granules
                for column in columns:
                    slack -= variables[column].lower
                    room += variables[column].upper - variables[column].lower
            processors[processor_name] = (slack, room)
        memories: Dict[str, Tuple[float, float]] = {}
        for memory_name, memory in self.platform.memories.items():
            if memory.is_bounded:
                slack = memory.capacity
                room = 0.0
                for block in self.blocks:
                    for column, size in block.memory_capacity_columns(memory_name):
                        slack -= size * (1.0 + variables[column].lower)
                        room += size * (variables[column].upper - variables[column].lower)
                memories[memory_name] = (slack, room)
        for share in _START_SHARES:
            budget_shares = {
                name: _slack_share(slack, room, share)
                for name, (slack, room) in processors.items()
            }
            capacity_shares: Dict[str, Optional[float]] = {
                name: _slack_share(*memories[name], share) if name in memories else None
                for name in self.platform.memories
            }
            values: Dict[Variable, float] = {}
            # A list, not a short-circuiting generator: every block writes
            # its values even after one has not settled.
            settled = [
                block.initial_point_into(values, budget_shares, capacity_shares)
                for block in self.blocks
            ]
            if all(settled):
                break
        return values

    def solve(self, backend: str = "auto") -> Solution:
        """Build (if necessary) and solve the cone program."""
        program = self.build()
        return program.solve(backend=backend, initial_point=self.initial_point())

    # -- coupling rows ----------------------------------------------------------
    def _add_coupling_rows(self) -> None:
        """Constraints (9) and (10), one row ``expr ≤ 0`` per shared resource.

        (9): every application's budgets on a processor, one granule of
        rounding slack per task and the scheduling overhead fit in its
        replenishment interval.  (10): every application's relaxed
        capacities, plus one container each, fit in a bounded memory.
        """
        rows = RowWriter()
        for processor_name, processor in self.platform.processors.items():
            budgets: List[int] = []
            slack = processor.scheduling_overhead
            for block in self.blocks:
                block_budgets, block_slack = block.processor_budget_columns(
                    processor_name
                )
                budgets.extend(block_budgets)
                slack += block_slack
            if not budgets:
                continue
            rows.lengths.append(len(budgets))
            rows.columns.extend(budgets)
            rows.values.extend([1.0] * len(budgets))
            rows.constants.append(
                (0.0 + float(slack)) + float(processor.replenishment_interval) * -1.0
            )
            rows.names.append(f"processor[{processor_name}]")
        for memory_name, memory in self.platform.memories.items():
            if not memory.is_bounded:
                continue
            usage = [
                term
                for block in self.blocks
                for term in block.memory_capacity_columns(memory_name)
            ]
            if not usage:
                continue
            charged = 0.0
            for column, size in usage:
                charged += size
                if size != 0.0:
                    rows.columns.append(column)
                    rows.values.append(size)
            rows.lengths.append(sum(size != 0.0 for _, size in usage))
            rows.constants.append(charged + float(memory.capacity) * -1.0)
            rows.names.append(f"memory[{memory_name}]")
        rows.add_to(self.program)

    def _set_objective(self) -> None:
        terms = [term for block in self.blocks for term in block.objective_terms()]
        self.program.minimize(
            [self.program.position(variable) for variable, _ in terms],
            [coefficient for _, coefficient in terms],
        )


#: The name the workload entry points use for the same formulation.
WorkloadSocpFormulation = SocpFormulation
