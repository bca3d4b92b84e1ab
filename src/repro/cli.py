"""Command-line interface.

The CLI makes the library usable from a shell or a build system without
writing Python:

* ``repro-map allocate <config.json>`` — run the joint budget/buffer
  computation on a configuration stored as JSON and print (or write) the
  mapped configuration.
* ``repro-map allocate-workload <workload.json>`` — jointly allocate a
  multi-application workload on its shared platform and print the per-
  application mappings plus the per-processor budget split.
* ``repro-map admit <workload.json> <candidate.json>`` — run-time admission
  control: decide whether one more application can run alongside a workload
  (exit 0 = admitted with the new joint allocation, 1 = rejected with a
  structured reason); ``repro-map admit --trace <trace.json>`` replays a
  whole arrival/departure event trace through the incremental session.
* ``repro-map sweep <config.json> --capacities 1:10`` — reproduce a
  budget-vs-buffer trade-off sweep for an arbitrary configuration.
* ``repro-map experiments`` — regenerate the paper's figures.
* ``repro-map validate <config.json>`` — structural validation plus the
  closed-form feasibility screen, without invoking the solver.
* ``repro-map batch <campaign.json>`` — run a whole campaign of allocation
  problems through the parallel batch engine with a persistent result cache.

All sub-commands exit with status 0 on success, 1 on infeasibility or
validation failure, and 2 on usage errors.

Batch campaigns
---------------

``repro-map batch`` takes a declarative JSON campaign (see
:mod:`repro.batch.campaign` for the full schema).  A campaign names the
solver backend and objective preset once, and lists *entries*: generator
sweeps (cartesian products over the parameters of the synthetic generators
in :mod:`repro.taskgraph.generators`), seeded instance families (``count``),
and explicit configurations, optionally swept over a common per-buffer
capacity bound.  A worked example::

    {
      "name": "nightly",
      "seed": 7,
      "backend": "auto",
      "weights": "prefer-budgets",
      "entries": [
        {"generator": "chain", "sweep": {"stages": [2, 3, 4, 5]}},
        {"generator": "random_dag",
         "params": {"task_count": 8, "processor_count": 8, "max_capacity": 8},
         "count": 100},
        {"configuration_path": "decoder.json", "capacity_sweep": "1:10"}
      ]
    }

Running ``repro-map batch nightly.json --workers 4`` expands the campaign
into its instances, skips every instance already present in the result cache
(``--cache-dir``, disable with ``--no-cache``), fans the rest out over four
worker processes, and prints the per-campaign summary (feasibility rate,
budget/capacity percentiles, allocations/sec).  ``--per-item`` additionally
prints one row per instance and ``--output results.json`` writes the full
structured results.  The exit status is 0 when at least one instance is
feasible and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.allocator import AllocatorOptions, JointAllocator
from repro.core.objective import resolve_weights
from repro.exceptions import InfeasibleProblemError, ReproError
from repro.taskgraph import serialization

#: Exit codes used by every sub-command.
EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def render_table(rows, columns=None) -> str:
    """:func:`repro.analysis.report.render_table`, imported on first use."""
    from repro.analysis.report import render_table as render

    return render(rows, columns)


def _load_configuration(path: str):
    return serialization.load_configuration(path)


def _parse_capacity_range(text: str) -> List[int]:
    """Parse ``"1:10"`` or ``"2,4,8"`` into a list of capacities.

    Delegates to the shared :func:`repro.batch.campaign.parse_capacity_values`
    (the parser behind campaign ``capacity_sweep`` fields, so both surfaces
    accept the same syntax).  Used as an ``argparse`` type: malformed input
    (reversed ranges, empty segments, non-integers, non-positive capacities)
    raises :class:`argparse.ArgumentTypeError` and surfaces as a clean usage
    error (exit code 2) instead of a traceback.
    """
    from repro.batch.campaign import parse_capacity_values

    try:
        return parse_capacity_values(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"malformed capacity range {text!r}: {error}"
        ) from None


# -- telemetry ---------------------------------------------------------------------
class _CliTelemetry:
    """Scoped telemetry capture behind the ``--trace``/``--profile``/
    ``--telemetry-log`` flags.

    :meth:`scope` wraps the command's solve in :func:`repro.obs.capture` when
    any telemetry flag is set (and is a no-op otherwise); :meth:`render`
    prints the requested views afterwards.  Keeping capture and rendering
    separate lets the command print its normal output between the two.
    """

    def __init__(self, arguments: argparse.Namespace) -> None:
        self.show_trace = bool(getattr(arguments, "show_trace", False))
        self.profile = bool(getattr(arguments, "profile", False))
        self.log = getattr(arguments, "telemetry_log", None)
        self.active = self.show_trace or self.profile or bool(self.log)
        self.capture = None

    @contextmanager
    def scope(self):
        if not self.active:
            yield None
            return
        from repro import obs

        with obs.capture(sink=self.log) as captured:
            self.capture = captured
            yield captured

    def render(self) -> None:
        if self.capture is None:
            return
        from repro.obs.export import render_profile, render_trace_tree

        if self.show_trace:
            print()
            print(render_trace_tree(self.capture.spans))
        if self.profile:
            print()
            print(render_profile(self.capture.spans))
        if self.log:
            print(f"\ntelemetry written to {self.log}")


def _add_telemetry_flags(
    sub: argparse.ArgumentParser, include_trace: bool = True
) -> None:
    if include_trace:
        sub.add_argument(
            "--trace",
            dest="show_trace",
            action="store_true",
            help="render the nested span tree of this run (phases with timings)",
        )
    sub.add_argument(
        "--profile",
        action="store_true",
        help="render per-span aggregate timings (calls, total/self time, share)",
    )
    sub.add_argument(
        "--telemetry-log",
        metavar="PATH",
        help="append schema-versioned JSONL telemetry records to PATH",
    )


# -- sub-commands ----------------------------------------------------------------
def _single_solve_stats(solver_info: dict) -> dict:
    """The ``--stats`` totals for one solve, from a mapping's solver_info."""
    stats = dict(solver_info.get("solve_stats", {}))
    totals = {
        "solves": 1,
        "phase1_skipped": 1 if stats.get("phase1_skipped") else 0,
        "newton_iterations": int(stats.get("newton_iterations", 0)),
        "phase1_newton_iterations": int(stats.get("phase1_newton_iterations", 0)),
        "solve_time": float(solver_info.get("solve_time", 0.0) or 0.0),
    }
    if "structured" in stats:
        totals["structured"] = bool(stats["structured"])
    for key in (
        "sparse_nnz",
        "assembly_time",
        "factorization_time",
        "schur_time",
        "block_factorizations",
    ):
        if key in stats:
            totals[key] = stats[key]
    timings = solver_info.get("timings")
    if timings:
        totals["timings"] = dict(timings)
    return totals


def _cmd_allocate(arguments: argparse.Namespace) -> int:
    configuration = _load_configuration(arguments.configuration)
    allocator = JointAllocator(
        weights=resolve_weights(arguments.weights),
        options=AllocatorOptions(backend=arguments.backend),
    )
    telemetry = _CliTelemetry(arguments)
    try:
        with telemetry.scope():
            mapped = allocator.allocate(configuration)
    except InfeasibleProblemError as error:
        print(f"infeasible: {error}", file=sys.stderr)
        telemetry.render()
        return EXIT_INFEASIBLE

    payload = serialization.mapped_configuration_to_dict(mapped)
    if arguments.output:
        Path(arguments.output).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"mapped configuration written to {arguments.output}")
    else:
        print(render_table(
            [{"task": name, "budget": budget} for name, budget in sorted(mapped.budgets.items())]
        ))
        print()
        print(render_table(
            [
                {"buffer": name, "capacity": capacity}
                for name, capacity in sorted(mapped.buffer_capacities.items())
            ]
        ))
    if arguments.stats:
        print()
        print(_render_solve_stats(_single_solve_stats(mapped.solver_info)))
    telemetry.render()
    return EXIT_OK


def _cmd_allocate_workload(arguments: argparse.Namespace) -> int:
    from repro.taskgraph.workload import load_workload, mapped_workload_to_dict

    workload = load_workload(arguments.workload)
    allocator = JointAllocator(
        weights=resolve_weights(arguments.weights),
        options=AllocatorOptions(backend=arguments.backend),
    )
    telemetry = _CliTelemetry(arguments)
    try:
        with telemetry.scope():
            mapped = allocator.allocate_workload(workload)
    except InfeasibleProblemError as error:
        print(f"infeasible: {error}", file=sys.stderr)
        telemetry.render()
        return EXIT_INFEASIBLE

    if arguments.output:
        payload = mapped_workload_to_dict(mapped)
        Path(arguments.output).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"mapped workload written to {arguments.output}")
    else:
        budget_rows = [
            {"application": app_name, "task": task_name, "budget": budget}
            for app_name, app_mapped in mapped.applications.items()
            for task_name, budget in sorted(app_mapped.budgets.items())
        ]
        capacity_rows = [
            {"application": app_name, "buffer": buffer_name, "capacity": capacity}
            for app_name, app_mapped in mapped.applications.items()
            for buffer_name, capacity in sorted(app_mapped.buffer_capacities.items())
        ]
        print(render_table(budget_rows))
        print()
        print(render_table(capacity_rows))
        print()
        print("budget split per shared processor:")
        print(render_table(mapped.budget_split_rows()))
    if arguments.stats:
        print()
        print(_render_solve_stats(_single_solve_stats(mapped.solver_info)))
    telemetry.render()
    return EXIT_OK


def _cmd_validate(arguments: argparse.Namespace) -> int:
    from repro.analysis.feasibility import screen_configuration

    try:
        configuration = _load_configuration(arguments.configuration)
        configuration.validate()
    except ReproError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return EXIT_INFEASIBLE
    screen = screen_configuration(configuration)
    rows = [
        {"resource": name, "minimum load": round(load, 4)}
        for name, load in {**screen.processor_load, **screen.memory_load}.items()
    ]
    print(render_table(rows))
    if not screen.may_be_feasible:
        for violation in screen.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("configuration is structurally valid and passes the feasibility screen")
    return EXIT_OK


def _render_solve_stats(stats: dict) -> str:
    """Human-readable solver statistics block for ``--stats`` output.

    Only values the caller actually measured are rendered: the session-backed
    sweep reports compilations, the per-item batch path does not (it has no
    session, so that number would be fabricated).
    """
    lines = ["solver statistics:"]
    if "compiles" in stats:
        lines.append(f"  compilations:        {stats['compiles']}")
    lines.append(f"  solves:              {stats.get('solves', 0)}")
    lines.append(f"  phase I skipped:     {stats.get('phase1_skipped', 0)}")
    lines.append(
        f"  Newton iterations:   {stats.get('newton_iterations', 0)} "
        f"(+{stats.get('phase1_newton_iterations', 0)} in phase I)"
    )
    if "structured" in stats:
        lines.append(
            "  Newton backend:      "
            + ("sparse block-structured (Schur)" if stats["structured"] else "dense")
        )
    if "sparse_solves" in stats:
        # Session aggregate: the sparse-vs-dense engagement split and how
        # often a re-solve reused the cached kernel layout.
        lines.append(
            f"  sparse solves:       {stats['sparse_solves']} of "
            f"{stats.get('solves', 0)} "
            f"({stats.get('sparse_pieces_reused', 0)} reused cached pieces)"
        )
    if "sparse_nnz" in stats:
        lines.append(f"  constraint nonzeros: {stats['sparse_nnz']}")
    if "factorization_time" in stats:
        lines.append(
            f"  sparse time split:   {float(stats.get('assembly_time', 0.0)):.4f} s "
            f"assembly, {float(stats['factorization_time']):.4f} s "
            f"factorization, {float(stats.get('schur_time', 0.0)):.4f} s Schur "
            f"({stats.get('block_factorizations', 0)} block factorizations)"
        )
    lines.append(f"  solve time:          {float(stats.get('solve_time', 0.0)):.4f} s")
    timings = stats.get("timings")
    if timings:
        lines.append("  phase breakdown:")
        for phase in ("compile", "phase1", "centering", "rounding"):
            if phase in timings:
                lines.append(
                    f"    {phase + ':':<18} {float(timings[phase]):.4f} s"
                )
    return "\n".join(lines)


def _cmd_admit(arguments: argparse.Namespace) -> int:
    from repro.core.admission import AdmissionController, load_trace, replay_trace
    from repro.exceptions import JournalError, SnapshotError
    from repro.taskgraph.workload import load_workload, mapped_workload_to_dict

    allocator = JointAllocator(
        weights=resolve_weights(arguments.weights),
        options=AllocatorOptions(backend=arguments.backend, run_simulation=False),
    )
    telemetry = _CliTelemetry(arguments)

    if arguments.journal and not arguments.trace:
        print("--journal requires --trace (durable replay)", file=sys.stderr)
        return EXIT_USAGE
    if arguments.restore and not arguments.journal:
        print("--restore requires --journal", file=sys.stderr)
        return EXIT_USAGE

    if arguments.trace:
        if arguments.workload or arguments.candidate:
            print(
                "admit takes either --trace or a workload + candidate, not both",
                file=sys.stderr,
            )
            return EXIT_USAGE
        trace = load_trace(arguments.trace)
        if arguments.journal:
            from repro.reliability import graceful_interrupts, replay_trace_durably

            try:
                with telemetry.scope(), graceful_interrupts():
                    result = replay_trace_durably(
                        trace,
                        arguments.journal,
                        snapshot_every=arguments.snapshot_every,
                        allocator=allocator,
                        resume=arguments.restore,
                    )
            except (JournalError, SnapshotError) as error:
                print(f"error: {error}", file=sys.stderr)
                return EXIT_USAGE
        else:
            with telemetry.scope():
                result = replay_trace(trace, allocator=allocator)
        print(render_table(result.rows()))
        print(
            f"\ntrace {trace.name!r}: {result.admitted} admitted, "
            f"{result.rejected} rejected, {result.departed} departed "
            f"({len(result.records)} events)"
        )
        if arguments.stats:
            print()
            print(_render_solve_stats(result.solver_stats))
        if arguments.output:
            payload = {
                "events": [record.as_dict() for record in result.records],
                "solver_stats": dict(result.solver_stats),
            }
            Path(arguments.output).write_text(
                json.dumps(payload, indent=2, sort_keys=True)
            )
            print(f"trace results written to {arguments.output}")
        telemetry.render()
        return EXIT_OK if result.admitted > 0 else EXIT_INFEASIBLE

    if not arguments.workload or not arguments.candidate:
        print(
            "admit needs a running workload JSON and a candidate configuration "
            "JSON (or --trace <trace.json>)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    workload = load_workload(arguments.workload)
    try:
        # Seeding takes the running applications over in one joint solve —
        # the candidate question below is then the only admission event.
        controller = AdmissionController(
            workload.platform, allocator=allocator, workload=workload
        )
    except InfeasibleProblemError as error:
        print(
            f"error: the running workload itself is not allocatable: {error}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    candidate = _load_configuration(arguments.candidate)
    name = arguments.name or candidate.name
    with telemetry.scope():
        decision = controller.admit(name, candidate)
    if decision.verdict:
        print(
            f"anytime verdict: {decision.verdict} ({decision.verdict_stage}), "
            f"confirmed by the exact solve as "
            f"{'admitted' if decision.admitted else 'rejected'}"
        )
    if not decision.admitted:
        print(
            f"rejected: {name!r} cannot run alongside "
            f"{sorted(controller.running)} ({decision.stage}): {decision.reason}",
            file=sys.stderr,
        )
        telemetry.render()
        return EXIT_INFEASIBLE
    mapped = decision.mapped
    print(f"admitted {name!r} alongside {sorted(set(controller.running) - {name})}")
    print()
    print("budget split per shared processor:")
    print(render_table(mapped.budget_split_rows()))
    if arguments.stats:
        print()
        print(_render_solve_stats(controller.session_stats.as_dict()))
    if arguments.output:
        Path(arguments.output).write_text(
            json.dumps(mapped_workload_to_dict(mapped), indent=2, sort_keys=True)
        )
        print(f"mapped workload written to {arguments.output}")
    telemetry.render()
    return EXIT_OK


def _render_sweep_point_stats(curve) -> str:
    """Per-point phase-I/rung behaviour of a sweep (``--stats``).

    One row per swept point (phase I skipped, rungs climbed, Newton
    iterations), followed by the cross-point distributions — the rows feed a
    scoped :class:`~repro.obs.metrics.MetricsRegistry`, whose histogram
    quantiles summarise the solver's work over the whole sweep.
    """
    from repro.obs.export import render_metrics
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    rows = []
    for point in curve.points:
        stats = dict(point.solve_stats)
        rows.append(
            {
                "capacity": point.capacity_limit,
                "feasible": "yes" if point.feasible else "no",
                "phase1": "skipped" if stats.get("phase1_skipped") else "run",
                "rungs": int(stats.get("outer_iterations", 0)),
                "newton": int(stats.get("newton_iterations", 0)),
            }
        )
        if stats.get("phase1_skipped"):
            registry.counter("sweep.phase1_skipped").inc()
        registry.histogram("sweep.newton_iterations").observe(
            float(stats.get("newton_iterations", 0))
        )
        registry.histogram("sweep.rungs").observe(
            float(stats.get("outer_iterations", 0))
        )
    return (
        "per-point solver behaviour:\n"
        + render_table(rows)
        + "\n\n"
        + render_metrics(registry.snapshot())
    )


def _cmd_sweep(arguments: argparse.Namespace) -> int:
    from repro.core.tradeoff import TradeoffExplorer

    configuration = _load_configuration(arguments.configuration)
    capacities = arguments.capacities
    explorer = TradeoffExplorer(
        weights=resolve_weights(arguments.weights),
        allocator_options=AllocatorOptions(backend=arguments.backend, run_simulation=False),
    )
    telemetry = _CliTelemetry(arguments)
    with telemetry.scope():
        curve = explorer.sweep_capacity_limit(configuration, capacities)
    print(render_table(curve.as_table()))
    if arguments.stats:
        print()
        print(_render_solve_stats(curve.solver_stats))
        print()
        print(_render_sweep_point_stats(curve))
    telemetry.render()
    return EXIT_OK if curve.feasible_points() else EXIT_INFEASIBLE


def _cmd_experiments(arguments: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    run_all(backend=arguments.backend)
    return EXIT_OK


def _cmd_batch(arguments: argparse.Namespace) -> int:
    from repro.batch import load_campaign, per_item_rows, run_campaign
    from repro.obs import ProgressReporter

    spec = load_campaign(arguments.campaign)
    items = spec.expand()
    print(
        f"campaign {spec.name!r}: {len(items)} instances, "
        f"{arguments.workers} worker(s), cache "
        f"{'disabled' if arguments.no_cache else arguments.cache_dir}"
    )
    reporter: Optional[ProgressReporter] = None
    progress = None
    if not arguments.no_progress and items:
        # Live progress with throughput/ETA/feasibility, on stderr so the
        # machine-readable summary on stdout stays clean.
        reporter = ProgressReporter(total=len(items))
        progress = lambda index, result: reporter.update(result)  # noqa: E731
    telemetry_on = bool(arguments.telemetry or arguments.telemetry_log)
    executors: list = []
    # SIGTERM unwinds like Ctrl-C: the worker pool is torn down (no orphan
    # processes) and the cache / telemetry files stay valid.
    from repro.reliability import graceful_interrupts

    with graceful_interrupts():
        results, summary = run_campaign(
            spec,
            workers=arguments.workers,
            cache_dir=arguments.cache_dir,
            use_cache=not arguments.no_cache,
            timeout=arguments.timeout,
            progress=progress,
            items=items,
            telemetry=telemetry_on,
            executor_out=executors,
        )
    if reporter is not None:
        reporter.close()
    executor = executors[0]
    if arguments.per_item:
        print(render_table(per_item_rows(results)))
        print()
    print(summary.render())
    if arguments.stats:
        # Only count work done by *this* run: cached results carry their
        # original stats payload, but no solver ran for them here.  Every
        # fresh item counts as a solve (infeasible verdicts and non-barrier
        # backends included); the barrier-specific counters come from the
        # items whose backend reported them.
        fresh = [result for result in results if not result.from_cache]
        totals = {
            "solves": len(fresh),
            "phase1_skipped": sum(
                1 for result in fresh if result.stats.get("phase1_skipped")
            ),
            "newton_iterations": sum(
                int(result.stats.get("newton_iterations", 0)) for result in fresh
            ),
            "phase1_newton_iterations": sum(
                int(result.stats.get("phase1_newton_iterations", 0))
                for result in fresh
            ),
            "solve_time": sum(result.solve_seconds for result in fresh),
        }
        print()
        print(_render_solve_stats(totals))
        if telemetry_on:
            from repro.obs.export import render_metrics

            # The campaign aggregate: executor-side counters plus every
            # worker's metric snapshot merged in (Newton/rung quantiles
            # across all fresh items).
            print()
            print(render_metrics(executor.metrics.snapshot()))
    if arguments.telemetry_log:
        from repro.obs.export import JsonlSink

        with JsonlSink(arguments.telemetry_log) as sink:
            for result in results:
                for span_dict in (result.telemetry or {}).get("spans", []):
                    sink.emit_span(span_dict)
            snapshot = executor.metrics.snapshot()
            if snapshot:
                sink.emit_metrics(snapshot)
        print(f"telemetry written to {arguments.telemetry_log}")
    if arguments.output:
        payload = {
            "campaign": spec.to_dict(),
            "summary": summary.as_dict(),
            "results": [
                {**result.to_dict(), "from_cache": result.from_cache}
                for result in results
            ],
        }
        Path(arguments.output).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"batch results written to {arguments.output}")
    return EXIT_OK if summary.feasible > 0 else EXIT_INFEASIBLE


# -- entry point -------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Simultaneous budget and buffer-size computation for "
        "throughput-constrained task graphs (Wiggers et al., DATE 2010).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            default="auto",
            choices=["auto", "barrier", "scipy"],
            help="cone-solver backend (default: auto)",
        )
        sub.add_argument(
            "--weights",
            default="prefer-budgets",
            choices=["balanced", "prefer-budgets", "prefer-buffers"],
            help="objective weighting preset (default: prefer-budgets)",
        )

    allocate_parser = subparsers.add_parser(
        "allocate", help="compute budgets and buffer capacities for a configuration"
    )
    allocate_parser.add_argument("configuration", help="path to a configuration JSON file")
    allocate_parser.add_argument("--output", help="write the mapped configuration JSON here")
    allocate_parser.add_argument(
        "--stats",
        action="store_true",
        help="print solver statistics (phase-I skips, Newton iterations, solve time)",
    )
    add_common(allocate_parser)
    _add_telemetry_flags(allocate_parser)
    allocate_parser.set_defaults(handler=_cmd_allocate)

    allocate_workload_parser = subparsers.add_parser(
        "allocate-workload",
        help="jointly allocate a multi-application workload on its shared platform",
        description="Solve the block-structured cone program of a workload "
        "(several applications sharing one platform) and report per-"
        "application budgets/capacities plus the per-processor budget split.",
    )
    allocate_workload_parser.add_argument(
        "workload", help="path to a workload JSON file"
    )
    allocate_workload_parser.add_argument(
        "--output", help="write the mapped workload JSON here"
    )
    allocate_workload_parser.add_argument(
        "--stats",
        action="store_true",
        help="print solver statistics (phase-I skips, Newton iterations, solve time)",
    )
    add_common(allocate_workload_parser)
    _add_telemetry_flags(allocate_workload_parser)
    allocate_workload_parser.set_defaults(handler=_cmd_allocate_workload)

    admit_parser = subparsers.add_parser(
        "admit",
        help="run-time admission control: can this application join the "
        "running workload?",
        description="Answer the run-time admission question for one candidate "
        "configuration against a running workload (exit 0 = admitted, 1 = "
        "rejected with a structured reason), or replay a whole "
        "arrival/departure trace with --trace.",
    )
    admit_parser.add_argument(
        "workload",
        nargs="?",
        help="path to the running workload JSON (omit with --trace)",
    )
    admit_parser.add_argument(
        "candidate",
        nargs="?",
        help="path to the candidate configuration JSON (omit with --trace)",
    )
    admit_parser.add_argument(
        "--name",
        help="application name of the candidate (default: its configuration name)",
    )
    admit_parser.add_argument(
        "--trace", help="replay an arrival/departure trace JSON instead"
    )
    admit_parser.add_argument(
        "--journal",
        help="with --trace: append every committed event to this durable, "
        "checksummed journal file (crash-safe replay)",
    )
    admit_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="with --journal: write a session snapshot next to the journal "
        "after every N events (0 = journal only)",
    )
    admit_parser.add_argument(
        "--restore",
        action="store_true",
        help="with --journal: resume a killed replay from the journal (and "
        "snapshot, if one exists) instead of starting over",
    )
    admit_parser.add_argument(
        "--output", help="write the mapped workload (or trace results) JSON here"
    )
    admit_parser.add_argument(
        "--stats",
        action="store_true",
        help="print aggregate solver statistics of the admission session",
    )
    add_common(admit_parser)
    # --trace is taken by trace replay here; the span tree stays reachable
    # through --profile / --telemetry-log.
    _add_telemetry_flags(admit_parser, include_trace=False)
    admit_parser.set_defaults(handler=_cmd_admit)

    validate_parser = subparsers.add_parser(
        "validate", help="validate a configuration and run the feasibility screen"
    )
    validate_parser.add_argument("configuration", help="path to a configuration JSON file")
    validate_parser.set_defaults(handler=_cmd_validate)

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep the maximum buffer capacity and report the budget trade-off"
    )
    sweep_parser.add_argument("configuration", help="path to a configuration JSON file")
    sweep_parser.add_argument(
        "--capacities",
        type=_parse_capacity_range,
        default="1:10",
        help="capacity bounds to sweep, as 'low:high' or a comma-separated list (default 1:10)",
    )
    sweep_parser.add_argument(
        "--stats",
        action="store_true",
        help="print solver statistics (phase-I skips, Newton iterations, solve time)",
    )
    add_common(sweep_parser)
    _add_telemetry_flags(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate the figures of the paper's evaluation"
    )
    add_common(experiments_parser)
    experiments_parser.set_defaults(handler=_cmd_experiments)

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a JSON campaign through the parallel batch engine",
        description="Expand a declarative campaign specification and solve "
        "every instance, skipping instances already in the result cache. "
        "The solver backend and objective preset come from the campaign "
        "document itself.",
    )
    batch_parser.add_argument("campaign", help="path to a campaign JSON file")
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the fan-out (default: 1, inline)",
    )
    batch_parser.add_argument(
        "--cache-dir",
        default=".repro-map-cache",
        help="directory of the persistent result cache (default: .repro-map-cache)",
    )
    batch_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="solve every instance even if a cached result exists",
    )
    batch_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-item timeout in seconds (parallel mode only)",
    )
    batch_parser.add_argument(
        "--per-item", action="store_true", help="print one table row per instance"
    )
    batch_parser.add_argument(
        "--stats",
        action="store_true",
        help="print aggregated solver statistics across the campaign's instances",
    )
    batch_parser.add_argument("--output", help="write the structured results JSON here")
    batch_parser.add_argument(
        "--no-progress",
        action="store_true",
        help="disable the live progress line (items/s, ETA, feasibility rate)",
    )
    batch_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="capture per-item span trees and metrics inside the workers and "
        "merge them into the campaign aggregate (shown with --stats)",
    )
    batch_parser.add_argument(
        "--telemetry-log",
        metavar="PATH",
        help="write the captured telemetry (per-item span trees + merged "
        "metrics) as schema-versioned JSONL to PATH (implies --telemetry)",
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        arguments = parser.parse_args(argv)
    except SystemExit as exit_error:
        return EXIT_USAGE if exit_error.code not in (0, None) else EXIT_OK
    try:
        return int(arguments.handler(arguments))
    except FileNotFoundError as error:
        print(f"file not found: {error.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":  # pragma: no cover - exercised through tests via main()
    raise SystemExit(main())
