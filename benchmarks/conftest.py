"""Shared configuration for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation section
(or one ablation listed in DESIGN.md) and asserts its qualitative shape, so a
benchmark run doubles as a reproduction run.  Numbers are attached to the
pytest-benchmark report via ``benchmark.extra_info`` so that
``pytest benchmarks/ --benchmark-only --benchmark-json=...`` captures both the
timings and the reproduced series.
"""

from __future__ import annotations

from time import perf_counter

import pytest


@pytest.fixture
def record_series():
    """Helper that attaches a named data series to the benchmark report."""

    def _record(benchmark, name, values):
        benchmark.extra_info[name] = values
        return values

    return _record


@pytest.fixture
def run_timed(benchmark):
    """Time ``fn`` over ``rounds`` runs; return ``(result, mean wall seconds)``.

    Works under ``--benchmark-disable`` as well, where ``benchmark.stats`` is
    ``None`` and ``fn`` runs once: the wall-clock the assertions use is
    measured directly around each call.
    """

    def _run(fn, rounds=1):
        box = {}
        walls = []

        def timed():
            started = perf_counter()
            box["result"] = fn()
            walls.append(perf_counter() - started)
            return box["result"]

        benchmark.pedantic(timed, rounds=rounds, iterations=1, warmup_rounds=0)
        return box["result"], sum(walls) / len(walls)

    return _run
