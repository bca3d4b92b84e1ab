"""Budget schedulers: latency-rate characterisation, TDM model and allocations."""

from repro._lazy import lazy_exports

#: Every name loads its module on first use: verification only needs the
#: budget check, not the TDM or latency-rate models.
_EXPORTS = {
    "BudgetAllocation": "repro.scheduling.budget",
    "allocations_from_mapping": "repro.scheduling.budget",
    "validate_budget_feasibility": "repro.scheduling.budget",
    "LatencyRateServer": "repro.scheduling.latency_rate",
    "required_budget_for_completion": "repro.scheduling.latency_rate",
    "TdmScheduler": "repro.scheduling.tdm",
    "TdmSimulationResult": "repro.scheduling.tdm",
    "TdmSlotTable": "repro.scheduling.tdm",
    "build_slot_table": "repro.scheduling.tdm",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
