"""Telemetry quickstart: trace a solve, read the metrics, export JSONL.

The :mod:`repro.obs` layer is off by default and costs nothing while off.
This example switches it on for exactly one workload allocation using
:func:`repro.obs.capture`, then shows the three ways to consume what came
out:

* the **span tree** — the nested phase timings of the solve (compile,
  phase-I, every barrier rung, rounding, verification);
* the **profile** — the same spans aggregated by name, with call counts and
  self-time shares;
* the **metrics registry** — counters and histograms the solver and
  admission layers record (Newton iterations, rung counts, phase-I skips).

Everything is also exported to a schema-versioned JSONL file that outlives
the process — the same format ``repro-map batch --telemetry-log`` writes —
and re-read and validated record by record.

Run it::

    python examples/telemetry_quickstart.py [output.jsonl]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.core import AllocatorOptions, JointAllocator
from repro.obs.export import (
    JsonlSink,
    read_records,
    render_metrics,
    render_profile,
    render_trace_tree,
    validate_record,
)
from repro.taskgraph import Workload
from repro.taskgraph.generators import chain_configuration, random_dag_configuration


def build_workload() -> Workload:
    """Two applications sharing one platform: a chain and a random DAG."""
    chain = chain_configuration(stages=3)
    dag = random_dag_configuration(task_count=5, processor_count=3, seed=7)
    workload = Workload(chain.platform, name="quickstart")
    workload.add_application("chain", chain)
    workload.add_application("dag", dag)
    return workload


def main() -> None:
    # An explicit .jsonl argument wins; otherwise (including when the test
    # harness runs this file with its own argv) export to a temp directory.
    if len(sys.argv) > 1 and sys.argv[1].endswith(".jsonl"):
        log_path = Path(sys.argv[1])
    else:
        log_path = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "telemetry.jsonl"
    workload = build_workload()
    allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))

    # Telemetry is scoped: enabled inside the ``with``, off again after it,
    # and the allocation result is bit-identical either way.
    with JsonlSink(log_path) as sink:
        with obs.capture(sink=sink) as captured:
            mapped = allocator.allocate_workload(workload)

    print(
        f"allocated {len(mapped.applications)} applications, "
        f"objective={mapped.objective_value:.4f}"
    )

    print("\n== span tree ==")
    print(render_trace_tree(captured.spans))

    print("\n== profile ==")
    print(render_profile(captured.spans))

    print("\n== metrics ==")
    print(render_metrics(captured.metrics))

    records = read_records(log_path)
    for record in records:
        validate_record(record)
    kinds = sorted({record["kind"] for record in records})
    print(f"\n{len(records)} valid records ({', '.join(kinds)}) in {log_path}")


if __name__ == "__main__":
    main()
