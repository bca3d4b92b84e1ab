"""Unit helpers for clock-cycle quantities.

The paper reports all durations in Mcycles (megacycles).  Internally the
library is unit-agnostic: every duration-valued quantity (worst-case execution
time, replenishment interval, budget, throughput period) simply has to use the
*same* unit.  These helpers make the intent explicit in examples and
experiment drivers and guard against the classic cycles/Mcycles mix-up.
"""

from __future__ import annotations

#: Number of cycles in one Mcycle.
CYCLES_PER_MCYCLE: float = 1.0e6

#: The largest throughput period or replenishment interval a model accepts.
#: The formulation adds these up over every task of a graph
#: (``repro.core.formulation.sufficient_capacity_bound``, the start point);
#: below this bound the sums stay finite, where a value near the largest
#: float (1e308) would overflow to infinity.
MAX_DURATION: float = 1.0e100


def mcycles(value: float) -> float:
    """Return ``value`` Mcycles expressed in cycles."""
    return float(value) * CYCLES_PER_MCYCLE


def to_mcycles(cycles: float) -> float:
    """Convert a cycle count to Mcycles."""
    return float(cycles) / CYCLES_PER_MCYCLE


def kcycles(value: float) -> float:
    """Return ``value`` kilocycles expressed in cycles."""
    return float(value) * 1.0e3


def format_cycles(cycles: float, *, digits: int = 3) -> str:
    """Render a cycle count with an adaptive unit suffix.

    >>> format_cycles(40_000_000.0)
    '40.0 Mcycles'
    >>> format_cycles(1500.0)
    '1.5 kcycles'
    >>> format_cycles(12.0)
    '12.0 cycles'
    """
    value = float(cycles)
    if abs(value) >= CYCLES_PER_MCYCLE:
        return f"{round(value / CYCLES_PER_MCYCLE, digits)} Mcycles"
    if abs(value) >= 1.0e3:
        return f"{round(value / 1.0e3, digits)} kcycles"
    return f"{round(value, digits)} cycles"
