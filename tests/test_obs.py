"""Tests of the unified telemetry layer (:mod:`repro.obs`).

The invariants asserted here are the contract the rest of the stack relies
on: disabled telemetry records nothing (while spans still measure their
duration, so statistics keep their timing fields), captures restore global
state exactly, the JSONL sink stays line-atomic under concurrent writers,
and telemetry never leaks into deterministic batch output.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.obs.export import (
    SCHEMA_VERSION,
    JsonlSink,
    read_records,
    render_metrics,
    render_profile,
    render_trace_tree,
    validate_record,
)
from repro.obs.metrics import RESERVOIR_LIMIT, MetricsRegistry
from repro.obs.progress import ProgressReporter, format_eta
from repro.obs.trace import get_tracer, span, span_tree_size


class TestSpans:
    def test_disabled_by_default_but_still_timed(self):
        assert not obs.enabled()
        with span("outer") as outer:
            pass
        assert outer.seconds >= 0.0
        assert get_tracer().drain() == []

    def test_disabled_set_is_noop(self):
        with span("outer", a=1) as outer:
            outer.set(b=2)
        assert outer.attributes == {}

    def test_nesting_and_attributes(self):
        with obs.capture() as captured:
            with span("outer", kind="root") as outer:
                with span("inner") as inner:
                    inner.set(step=3)
                outer.set(done=True)
        assert captured.span_count == 2
        (root,) = captured.spans
        assert root["name"] == "outer"
        assert root["attributes"] == {"kind": "root", "done": True}
        (child,) = root["children"]
        assert child["name"] == "inner"
        assert child["attributes"] == {"step": 3}
        assert root["seconds"] >= child["seconds"]

    def test_exception_closes_span_and_sets_error(self):
        with obs.capture() as captured:
            with pytest.raises(ValueError, match="boom"):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
        (root,) = captured.spans
        assert root["status"] == "error"
        assert root["error"] == "ValueError: boom"
        (child,) = root["children"]
        assert child["status"] == "error"
        # The stack unwound fully: nothing is left open.
        assert get_tracer()._stack() == []

    def test_sibling_spans(self):
        with obs.capture() as captured:
            with span("parent"):
                with span("first"):
                    pass
                with span("second"):
                    pass
        (root,) = captured.spans
        assert [child["name"] for child in root["children"]] == ["first", "second"]

    def test_thread_local_stacks(self):
        errors = []

        def worker(index: int) -> None:
            try:
                with span(f"thread-{index}"):
                    with span("inner"):
                        pass
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        with obs.capture() as captured:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(captured.spans) == 4
        assert all(len(root["children"]) == 1 for root in captured.spans)

    def test_span_round_trip(self):
        with obs.capture() as captured:
            with span("outer", answer=42):
                with span("inner"):
                    pass
        from repro.obs.trace import Span

        restored = Span.from_dict(captured.spans[0])
        assert restored.as_dict() == captured.spans[0]
        assert span_tree_size(captured.spans[0]) == 2


class TestCapture:
    def test_restores_global_state(self):
        tracer = get_tracer()
        registry = obs.get_registry()
        before = (tracer.enabled, tracer.sink, registry.enabled)
        with obs.capture():
            assert tracer.enabled and registry.enabled
        assert (tracer.enabled, tracer.sink, registry.enabled) == before

    def test_filled_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.capture() as captured:
                with span("doomed"):
                    raise RuntimeError("nope")
        assert [s["name"] for s in captured.spans] == ["doomed"]

    def test_nested_captures_do_not_bleed(self):
        with obs.capture() as outer:
            with span("outer-span"):
                pass
            with obs.capture() as inner:
                with span("inner-span"):
                    pass
            with span("outer-span-2"):
                pass
        assert [s["name"] for s in inner.spans] == ["inner-span"]
        assert [s["name"] for s in outer.spans] == ["outer-span", "outer-span-2"]

    def test_as_dict_schema(self):
        with obs.capture() as captured:
            obs.metrics.counter("c").inc()
            with span("s"):
                pass
        payload = captured.as_dict()
        assert payload["schema"] == SCHEMA_VERSION
        assert [s["name"] for s in payload["spans"]] == ["s"]
        assert payload["metrics"]["c"]["value"] == 1.0


class TestMetrics:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["c"]["value"] == 0.0
        assert snapshot["g"]["value"] is None
        assert snapshot["h"]["count"] == 0

    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc()
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.0)
        for value in range(1, 101):
            registry.histogram("h").observe(float(value))
        snapshot = registry.snapshot()
        assert snapshot["c"]["value"] == 3.0
        assert snapshot["g"]["value"] == 7.0
        h = snapshot["h"]
        assert h["count"] == 100
        assert h["min"] == 1.0 and h["max"] == 100.0
        assert h["p50"] == pytest.approx(50.5)
        assert h["p90"] == pytest.approx(90.1)
        assert h["p99"] == pytest.approx(99.01)

    def test_instrument_type_conflict(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.histogram("x")

    def test_reservoir_is_bounded(self):
        registry = MetricsRegistry(enabled=True)
        h = registry.histogram("h")
        for value in range(3 * RESERVOIR_LIMIT):
            h.observe(float(value))
        assert h.count == 3 * RESERVOIR_LIMIT
        assert len(h.samples) <= RESERVOIR_LIMIT
        # Exact aggregates are unaffected by decimation.
        assert h.min == 0.0 and h.max == float(3 * RESERVOIR_LIMIT - 1)

    def test_merge_snapshot(self):
        worker = MetricsRegistry(enabled=True)
        worker.counter("solves").inc(3)
        worker.gauge("running").set(2.0)
        for value in (1.0, 2.0, 3.0):
            worker.histogram("newton").observe(value)

        aggregate = MetricsRegistry(enabled=True)
        aggregate.counter("solves").inc()
        aggregate.histogram("newton").observe(10.0)
        # Merging works even into a disabled aggregator.
        disabled = MetricsRegistry()
        disabled.merge_snapshot(worker.snapshot())
        assert disabled.snapshot()["solves"]["value"] == 3.0

        aggregate.merge_snapshot(worker.snapshot())
        snapshot = aggregate.snapshot()
        assert snapshot["solves"]["value"] == 4.0
        assert snapshot["running"]["value"] == 2.0
        newton = snapshot["newton"]
        assert newton["count"] == 4
        assert newton["sum"] == pytest.approx(16.0)
        assert newton["min"] == 1.0 and newton["max"] == 10.0

    def test_merge_is_quantile_preserving(self):
        parts = []
        for offset in (0, 100, 200):
            registry = MetricsRegistry(enabled=True)
            for value in range(offset, offset + 100):
                registry.histogram("h").observe(float(value))
            parts.append(registry.snapshot())
        merged = MetricsRegistry()
        for part in parts:
            merged.merge_snapshot(part)
        h = merged.snapshot()["h"]
        assert h["count"] == 300
        assert h["p50"] == pytest.approx(149.5)

    def test_concurrent_increments_are_exact(self):
        # Regression: lost updates under concurrent inc()/observe() from
        # several threads.  Exactness is the signal — any
        # unsynchronised read-modify-write eventually drops an update.
        registry = MetricsRegistry(enabled=True)
        threads, per_thread = 8, 2000
        barrier = threading.Barrier(threads)

        def hammer(worker_index: int) -> None:
            counter = registry.counter("solves")
            histogram = registry.histogram("seconds")
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(1.0)
                registry.gauge(f"worker[{worker_index}]").set(float(worker_index))

        pool = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        snapshot = registry.snapshot()
        assert snapshot["solves"]["value"] == float(threads * per_thread)
        assert snapshot["seconds"]["count"] == threads * per_thread
        assert snapshot["seconds"]["sum"] == pytest.approx(float(threads * per_thread))
        for index in range(threads):
            assert snapshot[f"worker[{index}]"]["value"] == float(index)

    def test_concurrent_instrument_creation_yields_one_instance(self):
        registry = MetricsRegistry(enabled=True)
        results = []
        barrier = threading.Barrier(8)

        def create() -> None:
            barrier.wait()
            results.append(registry.counter("shared"))

        pool = [threading.Thread(target=create) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len({id(instrument) for instrument in results}) == 1

    def test_merge_concurrent_with_writers(self):
        # merge_snapshot() must also take the instrument locks: an aggregator
        # folding worker snapshots while local threads keep incrementing may
        # not lose either side's updates.
        worker = MetricsRegistry(enabled=True)
        worker.counter("solves").inc(5)
        worker.histogram("seconds").observe(2.0)
        part = worker.snapshot()

        aggregate = MetricsRegistry(enabled=True)
        merges, incs = 50, 2000
        barrier = threading.Barrier(2)

        def merge_loop() -> None:
            barrier.wait()
            for _ in range(merges):
                aggregate.merge_snapshot(part)

        def inc_loop() -> None:
            counter = aggregate.counter("solves")
            histogram = aggregate.histogram("seconds")
            barrier.wait()
            for _ in range(incs):
                counter.inc()
                histogram.observe(1.0)

        pool = [
            threading.Thread(target=merge_loop),
            threading.Thread(target=inc_loop),
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        snapshot = aggregate.snapshot()
        assert snapshot["solves"]["value"] == float(5 * merges + incs)
        assert snapshot["seconds"]["count"] == merges + incs
        assert snapshot["seconds"]["sum"] == pytest.approx(float(2 * merges + incs))


class TestJsonlSink:
    def test_round_trip_and_validation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            with obs.capture(sink=sink) as captured:
                with span("outer", k="v"):
                    with span("inner"):
                        pass
                obs.metrics.counter("c").inc()
        records = read_records(path)
        # One span record (emitted by the sink as the root closed) and one
        # metrics record (emitted by capture() on exit).
        assert [record["kind"] for record in records] == ["span", "metrics"]
        for record in records:
            validate_record(record)
        assert records[0]["span"]["name"] == "outer"
        assert captured.spans[0] == records[0]["span"]

    def test_concurrent_writers_produce_complete_records(self, tmp_path):
        path = tmp_path / "contended.jsonl"
        sink = JsonlSink(path)
        per_thread = 50

        def worker(index: int) -> None:
            for count in range(per_thread):
                sink.emit_span(
                    {
                        "name": f"w{index}-{count}",
                        "seconds": 0.001,
                        "status": "ok",
                        # Padding makes torn writes (if any) easy to detect.
                        "attributes": {"payload": "x" * 256},
                    }
                )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()

        records = read_records(path)
        assert len(records) == 4 * per_thread
        for record in records:
            validate_record(record)
        names = {record["span"]["name"] for record in records}
        assert len(names) == 4 * per_thread

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "span", "pid": 1, "ts": 0.0, "span": {}},
            {"schema": 99, "kind": "span", "pid": 1, "ts": 0.0, "span": {}},
            {"schema": SCHEMA_VERSION, "kind": "nope", "pid": 1, "ts": 0.0},
            {
                "schema": SCHEMA_VERSION,
                "kind": "span",
                "pid": 1,
                "ts": 0.0,
                "span": {"name": "x", "seconds": -1.0, "status": "ok"},
            },
            {
                "schema": SCHEMA_VERSION,
                "kind": "span",
                "pid": 1,
                "ts": 0.0,
                "span": {"name": "x", "seconds": 0.1, "status": "error"},
            },
            {
                "schema": SCHEMA_VERSION,
                "kind": "metrics",
                "pid": 1,
                "ts": 0.0,
                "metrics": {"m": {"type": "mystery"}},
            },
            {
                "schema": SCHEMA_VERSION,
                "kind": "span",
                "pid": "one",
                "ts": 0.0,
                "span": {"name": "x", "seconds": 0.1, "status": "ok"},
            },
        ],
    )
    def test_validate_record_rejects_malformed(self, record):
        with pytest.raises(ValueError):
            validate_record(record)


class TestRenderers:
    def _spans(self):
        with obs.capture() as captured:
            with span("outer"):
                with span("inner", step=1):
                    pass
                with pytest.raises(RuntimeError):
                    with span("broken"):
                        raise RuntimeError("bad")
        return captured.spans

    def test_trace_tree(self):
        with obs.capture() as captured:
            with span("outer"):
                with span("inner", step=1):
                    pass
        text = render_trace_tree(captured.spans)
        assert "outer" in text
        assert "└─ inner" in text
        assert "step=1" in text

    def test_trace_tree_marks_errors(self):
        with pytest.raises(RuntimeError):
            with obs.capture() as captured:
                with span("broken"):
                    raise RuntimeError("bad")
        text = render_trace_tree(captured.spans)
        assert "broken [error]" in text
        assert "RuntimeError: bad" in text

    def test_empty_renderers(self):
        assert "no spans" in render_trace_tree([])
        assert "no spans" in render_profile([])
        assert "none recorded" in render_metrics({})

    def test_profile_aggregates_by_name(self):
        with obs.capture() as captured:
            for _ in range(3):
                with span("repeat"):
                    pass
        text = render_profile(captured.spans)
        line = next(line for line in text.splitlines() if line.startswith("repeat"))
        assert " 3 " in line

    def test_metrics_rendering(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("solver.solves").inc(5)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("solver.newton").observe(value)
        text = render_metrics(registry.snapshot())
        assert "solver.solves" in text
        assert "p50=2" in text


class TestProgressReporter:
    class _Result:
        def __init__(self, status="ok", from_cache=False):
            self.status = status
            self.from_cache = from_cache

    class _Stream:
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append(text)

        def flush(self):
            pass

    def test_accounting_and_line(self):
        stream = self._Stream()
        reporter = ProgressReporter(total=4, stream=stream)
        reporter.update(self._Result("ok"))
        reporter.update(self._Result("infeasible"))
        reporter.update(self._Result("error"))
        reporter.update(self._Result("ok", from_cache=True))
        reporter.close()
        assert reporter.done == 4
        assert reporter.feasible == 2
        assert reporter.infeasible == 1
        assert reporter.failed == 1
        assert reporter.cached == 1
        line = reporter.line()
        assert "[4/4]" in line and "100.0%" in line
        assert "ok=2 infeasible=1 failed=1" in line
        assert "cached=1" in line
        # Non-TTY stride for a 4-item run is 1: one line per item.
        assert len([text for text in stream.lines if text.endswith("\n")]) >= 4

    def test_format_eta(self):
        assert format_eta(42) == "42s"
        assert format_eta(200) == "3m 20s"
        assert format_eta(5400) == "1h 30m"


class TestSolverTelemetry:
    def test_solve_produces_phase_spans_and_metrics(self):
        from repro.core import JointAllocator, AllocatorOptions
        from repro.taskgraph.generators import chain_configuration

        configuration = chain_configuration(stages=3)
        allocator = JointAllocator(
            options=AllocatorOptions(backend="barrier", run_simulation=False)
        )
        with obs.capture() as captured:
            allocator.allocate(configuration)
        (root,) = captured.spans
        assert root["name"] == "allocate"
        names = [child["name"] for child in root["children"]]
        assert names[:2] == ["compile", "solve"]
        assert "rounding" in names and "verify" in names
        solve = root["children"][1]
        phases = [child["name"] for child in solve["children"]]
        assert phases == ["phase1", "centering"]
        centering = solve["children"][1]
        assert all(child["name"] == "rung" for child in centering["children"])
        assert len(centering["children"]) >= 1
        assert captured.metrics["solver.solves"]["value"] == 1.0
        assert captured.metrics["solver.newton_iterations"]["count"] == 1

    def test_rung_spans_report_convergence(self, monkeypatch):
        """Every rung span says whether its centering converged, and the
        registry counts the phase-II rungs that exhausted the Newton budget."""
        import dataclasses

        from repro.core.formulation import SocpFormulation
        from repro.solver import barrier
        from repro.solver.backends import solve_compiled
        from repro.taskgraph.generators import chain_configuration

        compiled = SocpFormulation(chain_configuration(stages=3)).build().compile()
        with obs.capture() as captured:
            solve_compiled(compiled, backend="barrier")
            monkeypatch.setattr(
                barrier,
                "_OPTIONS",
                dataclasses.replace(barrier._OPTIONS, max_newton_iterations=2),
            )
            capped = solve_compiled(compiled, backend="barrier")

        rungs, centering_flags = [], []

        def walk(span):
            if span["name"] == "rung":
                rungs.append(span)
            if span["name"] == "centering":
                centering_flags.extend(
                    child["attributes"]["converged"] for child in span["children"]
                )
            for child in span.get("children", []):
                walk(child)

        for root in captured.spans:
            walk(root)
        assert rungs and all(
            isinstance(rung["attributes"]["converged"], bool) for rung in rungs
        )
        nonconverged = centering_flags.count(False)
        assert nonconverged > 0
        assert capped.stats["nonconverged_rungs"] == nonconverged
        assert captured.metrics["solver.rungs_nonconverged"]["value"] == float(
            nonconverged
        )

    def test_structured_solve_splits_assembly_time(self):
        """A structured solve reports the block Hessian assembly next to the
        factorisation and Schur times, in its stats and as a histogram."""
        from repro.core.formulation import WorkloadSocpFormulation
        from repro.solver.backends import solve_compiled
        from repro.taskgraph.workload import random_workload

        compiled = WorkloadSocpFormulation(random_workload(3, seed=1)).build().compile()
        with obs.capture() as captured:
            solution = solve_compiled(compiled, backend="barrier")
        assert solution.stats["structured"] is True
        assert solution.stats["assembly_time"] > 0.0
        histogram = captured.metrics["solver.assembly_seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(solution.stats["assembly_time"])
        for name in ("solver.factorization_seconds", "solver.schur_seconds"):
            assert captured.metrics[name]["count"] == 1

    def test_admission_metrics(self):
        from repro.core.admission import replay_trace, random_trace

        trace = random_trace(event_count=4, seed=5)
        with obs.capture() as captured:
            result = replay_trace(trace)
        decisions = captured.metrics.get(
            "admission.admitted", {"value": 0.0}
        )["value"] + captured.metrics.get("admission.rejected", {"value": 0.0})[
            "value"
        ]
        arrivals = sum(1 for event in trace.events if event.action == "arrive")
        assert decisions == float(arrivals)
        assert captured.metrics["admission.decision_seconds"]["count"] == arrivals
        admit_spans = [s for s in captured.spans if s["name"] == "admit"]
        assert len(admit_spans) == arrivals
        assert result.admitted + result.rejected == arrivals

    def test_disabled_solve_stats_keep_timing_fields(self):
        from repro.core import JointAllocator, AllocatorOptions
        from repro.taskgraph.generators import chain_configuration

        assert not obs.enabled()
        mapped = JointAllocator(
            options=AllocatorOptions(backend="barrier", run_simulation=False)
        ).allocate(chain_configuration(stages=2))
        timings = mapped.solver_info["timings"]
        # Disabled spans still time themselves, so the stats contract holds.
        assert timings["compile"] > 0.0
        assert timings["centering"] > 0.0
        assert mapped.solver_info["solve_time"] > 0.0


class TestBatchTelemetry:
    @pytest.fixture
    def spec(self):
        from repro.batch import CampaignSpec

        return CampaignSpec.from_dict(
            {
                "name": "tele",
                "entries": [{"generator": "chain", "sweep": {"stages": [2, 3]}}],
            }
        )

    def test_worker_telemetry_rides_item_results(self, spec):
        from repro.batch import run_campaign

        executors = []
        results, _ = run_campaign(spec, telemetry=True, executor_out=executors)
        assert all(result.telemetry for result in results)
        for result in results:
            payload = result.telemetry
            assert payload["schema"] == SCHEMA_VERSION
            assert payload["spans"], "per-item span trees must ride along"
            for root in payload["spans"]:
                validate_record(
                    {
                        "schema": SCHEMA_VERSION,
                        "kind": "span",
                        "pid": 0,
                        "ts": 0.0,
                        "span": root,
                    }
                )
        (executor,) = executors
        merged = executor.metrics.snapshot()
        assert merged["solver.solves"]["value"] == float(len(results))
        assert merged["batch.solved"]["value"] == float(len(results))
        assert merged["solver.newton_iterations"]["count"] == len(results)

    def test_telemetry_is_excluded_from_output_payloads(self, spec):
        from repro.batch import run_campaign

        results, _ = run_campaign(spec, telemetry=True)
        for result in results:
            assert result.telemetry
            assert "telemetry" not in result.to_dict()
            assert "telemetry" not in result.deterministic_dict()

    def test_one_vs_n_workers_byte_identical_with_telemetry(self, spec):
        from repro.batch import run_campaign

        serial, _ = run_campaign(spec, workers=1, telemetry=True)
        parallel, _ = run_campaign(spec, workers=2, telemetry=True)
        serial_json = json.dumps(
            [result.deterministic_dict() for result in serial], sort_keys=True
        )
        parallel_json = json.dumps(
            [result.deterministic_dict() for result in parallel], sort_keys=True
        )
        assert serial_json == parallel_json

    def test_telemetry_does_not_change_cache_keys_or_payloads(self, spec, tmp_path):
        from repro.batch import run_campaign

        cold, _ = run_campaign(spec, cache_dir=tmp_path, telemetry=True)
        warm, _ = run_campaign(spec, cache_dir=tmp_path, telemetry=True)
        assert all(result.from_cache for result in warm)
        # Cached payloads never carry telemetry (it is wall-clock transport
        # data), so warm results have none — but the deterministic payloads
        # round-trip exactly.
        assert all(result.telemetry is None for result in warm)
        for before, after in zip(cold, warm):
            assert before.deterministic_dict() == after.deterministic_dict()

    def test_telemetry_off_by_default(self, spec):
        from repro.batch import run_campaign

        results, _ = run_campaign(spec)
        assert all(result.telemetry is None for result in results)
