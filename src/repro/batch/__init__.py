"""Batch campaigns: declarative specs, a parallel allocation engine, a result cache.

This layer turns the single-shot allocator into a high-throughput batch
service:

* :mod:`repro.batch.campaign` — declarative JSON campaign specifications
  composing the synthetic generators, explicit configurations and
  multi-application workloads into deterministic parameter sweeps.
* :mod:`repro.batch.executor` — the parallel engine: result-cache lookup,
  process-pool fan-out, per-item timeouts, one solve per item with the
  configured backend, and streaming structured results.
* :mod:`repro.batch.cache` — the persistent content-addressed result cache.
* :mod:`repro.batch.aggregate` — campaign-level summary statistics
  (feasibility rate, resource percentiles, allocations/sec).

The one-call entry point is :func:`run_campaign`::

    >>> from repro.batch import CampaignSpec, run_campaign
    >>> spec = CampaignSpec.from_dict({
    ...     "name": "demo",
    ...     "entries": [{"generator": "chain", "sweep": {"stages": [2, 3]}}],
    ... })
    >>> results, summary = run_campaign(spec)
    >>> summary.total
    2
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.batch.aggregate import (
    CampaignSummary,
    aggregate_results,
    per_item_rows,
    percentile,
)
from repro.batch.cache import NullCache, ResultCache, cache_key, canonical_json
from repro.batch.campaign import (
    GENERATORS,
    CampaignEntry,
    CampaignItem,
    CampaignSpec,
    load_campaign,
    parse_capacity_values,
)
from repro.batch.executor import (
    BatchExecutor,
    ExecutorConfig,
    ItemResult,
    SweepResult,
    make_cache,
)
from repro.core.objective import WEIGHT_PRESETS, resolve_weights

__all__ = [
    "BatchExecutor",
    "CampaignEntry",
    "CampaignItem",
    "CampaignSpec",
    "CampaignSummary",
    "ExecutorConfig",
    "GENERATORS",
    "ItemResult",
    "NullCache",
    "ResultCache",
    "SweepResult",
    "WEIGHT_PRESETS",
    "aggregate_results",
    "cache_key",
    "canonical_json",
    "load_campaign",
    "make_cache",
    "parse_capacity_values",
    "per_item_rows",
    "percentile",
    "resolve_weights",
    "run_campaign",
]


def run_campaign(
    spec: Union[CampaignSpec, str, Path],
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
    timeout: Optional[float] = None,
    progress=None,
    items: Optional[List[CampaignItem]] = None,
    telemetry: bool = False,
    executor_out: Optional[List[BatchExecutor]] = None,
) -> Tuple[List[ItemResult], CampaignSummary]:
    """Expand, execute and aggregate a campaign in one call.

    Parameters
    ----------
    spec:
        A :class:`CampaignSpec`, or a path to a campaign JSON file.
    workers:
        Process-pool size; ``1`` solves inline.
    cache_dir:
        Directory of the persistent result cache (``None`` disables caching).
    use_cache:
        Set to ``False`` to force re-solving even with a ``cache_dir``.
    timeout:
        Optional per-item timeout in seconds (parallel mode only).
    progress:
        Optional callback ``(index, ItemResult)`` invoked as items finish.
    items:
        Pre-expanded campaign items; pass them when the caller already
        expanded the spec (expansion runs the generators, so repeating it
        for large campaigns is wasteful).
    telemetry:
        Capture per-item span trees and metrics inside the workers and merge
        the metric snapshots into the executor's campaign aggregate (a pure
        observability knob: results and cache keys are unaffected).
    executor_out:
        When given, the :class:`BatchExecutor` used for the run is appended
        to this list so the caller can read ``executor.metrics`` (and any
        per-item telemetry) after the campaign.
    """
    if not isinstance(spec, CampaignSpec):
        spec = load_campaign(spec)
    if items is None:
        items = spec.expand()
    executor = BatchExecutor(
        config=ExecutorConfig(
            workers=workers,
            backend=spec.backend,
            weights=spec.weights,
            timeout=timeout,
            telemetry=telemetry,
        ),
        cache=make_cache(cache_dir, enabled=use_cache),
    )
    if executor_out is not None:
        executor_out.append(executor)
    start = time.perf_counter()
    try:
        results = executor.run(items, progress=progress)
    finally:
        # One-shot convenience entry point: release the persistent worker
        # pool (callers holding the executor via executor_out keep access to
        # its metrics; a later run would simply re-create the pool).
        executor.close()
    elapsed = time.perf_counter() - start
    summary = aggregate_results(spec.name, results, elapsed_seconds=elapsed)
    return results, summary
