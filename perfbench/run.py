"""The repository benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload config-stream --seed 1 --seconds 20 --trace 0

Each run generates its inputs from ``--seed`` before the timed loop, runs
closed-loop operations (one client, the next operation starts when the
previous one returns) in passes over the inputs for ``--seconds`` seconds,
always finishing the first pass, checks every output against the recorded
reference outcomes, writes a result file under ``.perfbench/results`` and
prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are scaled to a reference machine speed
measured by a calibration kernel between operations.  Other modes:

* ``--compare PARENT_DIR CHANGE_DIR`` — verdicts between two result sets;
* ``--self-test`` — the output checks reject what they must;
* ``--record-reference`` — re-record ``reference.json`` from the current tree.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
STATE = ROOT / ".perfbench"
#: One client on one core: BLAS pools stay single-threaded unless the caller
#: sets these explicitly (the values in force are recorded in the context).
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
#: Operations a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Duration of one calibration kernel at the reference machine speed.
CALIBRATION_REF_MS = 2.0


def tail(samples: List[float]):
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``; with fewer than ``TAIL_BEYOND + 1``
    samples it falls back to the smallest sample.
    """
    ordered = sorted(samples)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Calibrator:
    """Measures the machine's current speed with a fixed pure-Python kernel.

    A shared 2-core machine runs the same work up to 1.6x slower for
    seconds at a time.  The kernel is timed between operations (and around
    the import, which is why it needs nothing but the interpreter);
    ``CALIBRATION_REF_MS / kernel_ms`` is the speed factor that scales a
    measured time to the reference speed.
    """

    def __init__(self) -> None:
        self.spent = 0.0

    def __call__(self) -> float:
        """One kernel run; returns its duration in ms."""
        began = time.perf_counter()
        table = {}
        total = 0.0
        for step in range(8000):
            table[step % 97] = total
            total += (step * 0.5) % 7.0 + len(table)
        elapsed = time.perf_counter() - began
        self.spent += elapsed
        return 1000.0 * elapsed


@dataclass
class Op:
    pass_index: int
    index: int
    traced: bool
    seconds: float
    outcome: object
    spans: Optional[list] = None
    metrics: Optional[dict] = None
    root: Optional[dict] = None
    #: factor scaling ``seconds`` to the reference machine speed
    speed: float = 1.0

    @property
    def reference_ms(self) -> float:
        return 1000.0 * self.seconds * self.speed


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def context(seed: int, trace: bool) -> Dict[str, object]:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "trace": trace,
    }


def guarded(call, *args):
    from workloads import Failed

    try:
        return call(*args)
    except Exception as error:  # noqa: BLE001 - a raising operation is a counted failure
        return Failed(f"{type(error).__name__}: {error}")


def traced_op(workload, item, pass_index: int, index: int, op_id: int) -> Op:
    from repro import obs

    with obs.capture() as captured:
        with obs.span("bench.op", workload=workload.name, item=str(item[0])) as span:
            outcome = guarded(workload.run, item, True, op_id)
    root = captured.spans[-1]
    spans, metrics = workload.telemetry(outcome, list(root.get("children", [])), captured.metrics)
    root["children"] = spans
    return Op(pass_index, index, True, span.seconds, outcome, spans, metrics, root)


def run_loop(workload, items: list, seconds: float, traced: bool, calibrate: Calibrator):
    """Closed-loop passes over ``items`` until ``seconds`` have elapsed.

    The first pass always completes (the deterministic counters are taken
    over it).  In a traced run every input runs twice per pass, untraced and
    traced in alternating order, on separate state.  The metrics registry is
    on for untraced operations (tracing is not), so the first pass's Newton
    iterations are counted for every solve, infeasible ones included.  The
    calibration kernel runs between operations; an operation's speed factor
    comes from the kernel runs just before and just after it.

    Returns the operations, the number of completed passes, the loop's
    wall time without the calibration runs, the loop's median speed factor
    and the first pass's registry snapshot.
    """
    from repro.obs import get_registry

    registry = get_registry()
    registry.reset()
    registry.enabled = True
    ops: List[Op] = []
    first_pass_metrics: Dict[str, dict] = {}
    op_id = 0
    pass_index = 0
    calibrations = [calibrate()]
    spent_before = calibrate.spent
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            for index, item in enumerate(items):
                lanes = [(index + pass_index) % 2 == 1, (index + pass_index) % 2 == 0] if traced else [False]
                for lane in lanes:
                    workload.prepare(item, lane)
                    if lane:
                        ops.append(traced_op(workload, item, pass_index, index, op_id))
                    else:
                        began = time.perf_counter()
                        outcome = guarded(workload.run, item, False, op_id)
                        ops.append(Op(pass_index, index, False, time.perf_counter() - began, outcome))
                    op_id += 1
                    calibrations.append(calibrate())
                    ops[-1].speed = 2.0 * CALIBRATION_REF_MS / (calibrations[-2] + calibrations[-1])
                if pass_index > 0 and time.perf_counter() >= deadline:
                    break
            else:
                if pass_index == 0:
                    first_pass_metrics = registry.snapshot()
                pass_index += 1
                if time.perf_counter() < deadline:
                    continue
            break
        wall = time.perf_counter() - start - (calibrate.spent - spent_before)
    finally:
        registry.enabled = False
    return ops, pass_index, wall, CALIBRATION_REF_MS / statistics.median(calibrations), first_pass_metrics


def check_ops(workload, items: list, ops: List[Op]) -> List[str]:
    from workloads import Failed

    failures = []
    for op in ops:
        if isinstance(op.outcome, Failed):
            failures.append(f"{items[op.index][0]}: {op.outcome.error}")
            continue
        problem = guarded(workload.check, items[op.index], op.outcome)
        if isinstance(problem, Failed):
            problem = f"{items[op.index][0]}: check raised {problem.error}"
        if problem is not None:
            failures.append(problem)
    return failures


def newton_per_op(workload, items: list, ops: List[Op], registry_snapshot: Dict[str, dict]) -> float:
    """Barrier Newton iterations (phase I + II) per operation of the first pass."""
    from workloads import PaperCli

    if isinstance(workload, PaperCli):
        first = [op for op in ops if op.pass_index == 0 and not op.traced]
        return sum(workload.newton(op.outcome) or 0 for op in first) / len(first)
    total = sum(
        float((registry_snapshot.get(name) or {}).get("sum") or 0.0)
        for name in ("solver.newton_iterations", "solver.phase1_newton_iterations")
    )
    return total / len(items)


def end_to_end(workload, items, plain: List[Op], completed: int, attempted: int, failed: int,
               wall: float, loop_speed: float, newton: float, setup_s: float):
    """End-to-end metrics; times are scaled to the reference machine speed."""
    from workloads import CliOutcome, PaperCli

    timed = [op for op in plain if op.pass_index < completed] if workload.whole_passes else plain
    samples = [op.reference_ms for op in timed]
    raw = [op.seconds * 1000.0 for op in timed]
    tail_ms, tail_pct = tail(samples)
    if isinstance(workload, PaperCli):
        rss_kb = statistics.median(op.outcome.maxrss_kb for op in plain if isinstance(op.outcome, CliOutcome))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(samples) / (sum(samples) / 1000.0),
        "ok_frac": (attempted - failed) / attempted,
        "newton_per_op": newton,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {
        "op_p50_ms": f"raw {statistics.median(raw):.3f} ms",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(samples)} ops in {completed} passes; raw {tail(raw)[0]:.3f} ms",
        "ops_per_s": f"raw {attempted / wall:.3f}/s over the {wall:.3f} s loop; speed factor {loop_speed:.3f}",
        "ok_frac": f"fail_frac {failed / attempted} ({failed}/{attempted} failed)",
        "newton_per_op": f"over the {len(items)} ops of the first pass",
    }
    return metrics, details, tail_pct


def per_layer(workload, items, ops: List[Op], seed: int):
    import layers
    from workloads import AdmissionReplay, Failed, PaperCli, TraceEnd, child_environment, save_model

    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    metrics, details = layers.span_layers(traced)
    first_pairs = [(items[op.index], op.outcome) for op in traced if op.pass_index == 0]
    separate, separate_spans = layers.separate_layers(workload.subjects(first_pairs))
    metrics.update(separate)
    if isinstance(workload, PaperCli):
        paper = items[0][1]
    else:
        from repro.experiments import figure2

        paper = save_model(figure2.build_configuration(), workload.workdir / "cli-paper.json")
    metrics.update(layers.cli_layers(child_environment(SRC), paper, workload.workdir))
    metrics["solver.oracle_gap"], details["solver.oracle_gap"] = layers.oracle_gap(seed)
    records, sessions = [], []
    if isinstance(workload, AdmissionReplay):
        for _, outcome in first_pairs:
            if isinstance(outcome, TraceEnd):
                records.append(outcome.record)
                sessions.append(outcome.controller.session_stats)
            elif not isinstance(outcome, Failed):
                records.append(outcome)
    decided, agree, anytime_details = layers.anytime_quality(records)
    metrics["core.anytime_decided"], metrics["core.anytime_agree"] = decided, agree
    details.update(anytime_details)
    metrics["solver.warm_hit"], details["solver.warm_hit"] = layers.warm_hit(sessions)
    metrics["obs.trace_overhead_pct"] = layers.trace_overhead_pct(
        [op.reference_ms for op in traced], [op.reference_ms for op in untraced]
    )
    details["obs.trace_overhead_pct"] = f"median of {len(traced)} traced vs {len(untraced)} untraced ops"
    self_times = layers.self_times_ms(traced)
    roots = [op.root for op in traced] + separate_spans
    return metrics, details, self_times, roots


def declared(kind: str):
    """One section of ``BENCHMARK.json`` (workloads, metrics, run length)."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))[kind]


def run(arguments) -> int:
    calibrate = Calibrator()
    import_calibration = calibrate()
    import_began = time.perf_counter()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - import_began
    before = calibrate()
    import_s *= 2.0 * CALIBRATION_REF_MS / (import_calibration + before)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workdir = STATE / f"work-{os.getpid()}"
    results = Path(arguments.out) if arguments.out else STATE / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[arguments.workload](reference, workdir, SRC)
        setups = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            items = workload.generate(workload.select(arguments.seed))
            workload.warm_up()
            elapsed = time.perf_counter() - began
            after = calibrate()
            setups.append(elapsed * 2.0 * CALIBRATION_REF_MS / (before + after))
            before = after
        setup_s = import_s + statistics.median(setups)
        traced = bool(arguments.trace)
        ops, completed, wall, loop_speed, registry_snapshot = run_loop(
            workload, items, arguments.seconds, traced, calibrate
        )
        failures = check_ops(workload, items, ops)
        plain = [op for op in ops if not op.traced]
        newton = newton_per_op(workload, items, ops, registry_snapshot)
        e2e, details, tail_pct = end_to_end(
            workload, items, plain, completed, len(ops), len(failures), wall, loop_speed, newton, setup_s
        )
        details["setup_s"] = (
            f"import {import_s:.3f} s + median of {', '.join(f'{value:.3f}' for value in setups)} s"
        )
        info = context(arguments.seed, traced)
        info.update({"workload": workload.name, "ops": len(ops), "op_tail_percentile": tail_pct})
        result_file: Dict[str, object] = {
            "context": info,
            "end_to_end": e2e,
            "details": details,
            "op_ms": [op.seconds * 1000.0 for op in plain],
            "op_speed": [op.speed for op in plain],
            "failures": failures[:50],
        }
        stem = f"{workload.name}-seed{arguments.seed}-trace{int(traced)}-{int(time.time() * 1000)}"
        if traced:
            layer_metrics, layer_details, self_times, roots = per_layer(workload, items, ops, arguments.seed)
            details.update(layer_details)
            result_file["per_layer"] = layer_metrics
            result_file["self_times_ms"] = self_times
            from repro.obs import JsonlSink

            sink = JsonlSink(results / f"{stem}.spans.jsonl")
            for root in roots:
                sink.emit_span(root)
            sink.close()
            values, wanted = layer_metrics, declared("per_layer")
        else:
            values, wanted = e2e, declared("end_to_end")
        (results / f"{stem}.json").write_text(json.dumps(result_file, indent=1, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"context: {json.dumps(info, sort_keys=True)}")
    for problem in failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in e2e.items():
        note = details.get(name, "")
        print(f"{'untraced ' if traced else ''}{name:28s} {value:14.6f}  {note}")
    if traced:
        for name, value in values.items():
            print(f"{name:28s} {value:14.6f}  {details.get(name, '')}")
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in wanted},
    }), flush=True)
    return 0


def record_reference() -> int:
    """Record every pool member's outcome with the current tree."""
    from workloads import WORKLOADS, AdmissionReplay

    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: Dict[str, object] = {"recorded_at": git_commit()}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls({}, workdir, SRC)
            entries: Dict[str, object] = {}
            for op_id, item in enumerate(workload.generate(workload.pool())):
                workload.prepare(item, False)
                described = workload.describe(item, workload.run(item, False, op_id))
                if isinstance(workload, AdmissionReplay):
                    entries.setdefault(item[0], []).append(described)
                else:
                    entries[item[0]] = described
            reference[name] = entries
            print(f"{name}: {len(entries)} pool members recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[workload["name"] for workload in declared("workloads")])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared("run_seconds"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files (default .perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    arguments = parser.parse_args(argv)

    if arguments.compare:
        import compare

        return compare.main(arguments.compare[0], arguments.compare[1], declared("end_to_end"))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    if arguments.self_test:
        import selftest

        return selftest.main()
    if arguments.record_reference:
        return record_reference()
    if arguments.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: missing reference outcomes {REFERENCE}", file=sys.stderr)
        return 2
    return run(arguments)


if __name__ == "__main__":
    sys.exit(main())
