"""Analysis and reporting: throughput, feasibility screening, sensitivity, tables."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Lazy (PEP 562) exports: each name imports its home module on first
#: access, so reading ``render_table`` does not load the sensitivity
#: analyses (and through them the allocator).
_EXPORTS = {
    "FeasibilityScreen": "repro.analysis.feasibility",
    "screen_configuration": "repro.analysis.feasibility",
    "LatencyReport": "repro.analysis.latency",
    "analyse_latency": "repro.analysis.latency",
    "latency_lower_bound": "repro.analysis.latency",
    "render_markdown_table": "repro.analysis.report",
    "render_series": "repro.analysis.report",
    "render_table": "repro.analysis.report",
    "BudgetReductionStep": "repro.analysis.sensitivity",
    "MarginalCapacityValue": "repro.analysis.sensitivity",
    "budget_reduction_curve": "repro.analysis.sensitivity",
    "diminishing_returns": "repro.analysis.sensitivity",
    "marginal_capacity_values": "repro.analysis.sensitivity",
    "GraphThroughputReport": "repro.analysis.throughput",
    "analyse_throughput": "repro.analysis.throughput",
    "utilisation_summary": "repro.analysis.throughput",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
