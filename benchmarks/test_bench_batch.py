"""Batch-engine throughput: serial vs. parallel vs. warm cache.

A ~50-instance random-DAG campaign is pushed through the batch engine three
ways: inline on one worker, fanned out over four worker processes, and with
a fully warm result cache.  The recorded metric is end-to-end throughput in
allocations per second; the warm cache must serve every result without a
single solver call, and the process pool must solve every item in its
worker processes with results identical to the serial run.  Both
throughputs are recorded, never compared: wall-clock races are not gates.
"""

from __future__ import annotations

import pytest

from repro.batch import (
    BatchExecutor,
    CampaignSpec,
    ExecutorConfig,
    ResultCache,
    aggregate_results,
)
from repro.solver import backends

CAMPAIGN = {
    "name": "bench-batch",
    "seed": 17,
    "entries": [
        {
            "generator": "random_dag",
            "params": {"task_count": 8, "processor_count": 8, "max_capacity": 8},
            "count": 50,
        }
    ],
}

PARALLEL_WORKERS = 4

#: Wall-clock measurements shared between the benchmarks of this module
#: (pytest runs them in definition order, serial first).
MEASURED = {}


@pytest.fixture(scope="module")
def items():
    return CampaignSpec.from_dict(CAMPAIGN).expand()


def _run(items, workers, cache=None):
    executor = BatchExecutor(config=ExecutorConfig(workers=workers), cache=cache)
    return executor.run(items)


def _throughput(benchmark, items, results, wall):
    benchmark.extra_info["instances"] = len(items)
    benchmark.extra_info["allocations_per_second"] = round(len(items) / wall, 2)
    summary = aggregate_results("bench-batch", results)
    benchmark.extra_info["feasible"] = summary.feasible
    assert summary.errors == 0 and summary.timeouts == 0
    return benchmark.extra_info["allocations_per_second"]


@pytest.mark.benchmark(group="batch-engine")
def test_batch_serial(benchmark, run_timed, items):
    results, wall = run_timed(lambda: _run(items, workers=1))
    MEASURED["serial_wall"] = wall
    MEASURED["serial_results"] = results
    throughput = _throughput(benchmark, items, results, wall)
    assert throughput > 0.0


@pytest.mark.benchmark(group="batch-engine")
def test_batch_parallel(benchmark, run_timed, items, monkeypatch):
    # Every compiled program reaches a backend through this one dispatcher.
    # Pool workers run it in their own processes, so a call recorded in this
    # process is an item the fan-out solved inline instead.
    inline_calls = []
    dispatch = backends.solve_compiled

    def counting(*args, **kwargs):
        inline_calls.append(1)
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(backends, "solve_compiled", counting)
    results, wall = run_timed(lambda: _run(items, workers=PARALLEL_WORKERS))
    monkeypatch.undo()
    _throughput(benchmark, items, results, wall)
    assert inline_calls == []

    serial_results = MEASURED.get("serial_results") or _run(items, workers=1)
    assert [result.deterministic_dict() for result in results] == [
        result.deterministic_dict() for result in serial_results
    ]
    serial_wall = MEASURED.get("serial_wall")
    if serial_wall is not None:
        benchmark.extra_info["serial_allocations_per_second"] = round(
            len(items) / serial_wall, 2
        )


@pytest.mark.benchmark(group="batch-engine")
def test_batch_warm_cache(benchmark, run_timed, items, tmp_path_factory, monkeypatch):
    # Every compiled program reaches a backend through this one dispatcher;
    # the inline (one-worker) runs below call it in this process.
    calls = []
    dispatch = backends.solve_compiled

    def counting(*args, **kwargs):
        calls.append(1)
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(backends, "solve_compiled", counting)
    cache = ResultCache(tmp_path_factory.mktemp("bench-cache"))
    cold_results = _run(items, workers=1, cache=cache)
    cold_elapsed = sum(result.solve_seconds for result in cold_results)
    cold_calls = len(calls)
    assert cold_calls >= aggregate_results("bench-batch", cold_results).feasible > 0

    results, wall = run_timed(lambda: _run(items, workers=1, cache=cache))
    _throughput(benchmark, items, results, wall)
    benchmark.extra_info["cold_allocations_per_second"] = round(
        len(items) / cold_elapsed, 2
    )
    assert all(result.from_cache for result in results)
    # a warm cache serves every result without solving anything
    assert len(calls) == cold_calls
