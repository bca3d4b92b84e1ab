"""Metrics: counters, gauges and quantile histograms.

The registry is the typed replacement for the per-module ad-hoc stats dicts:
one process-global (or explicitly scoped) :class:`MetricsRegistry` holds
named instruments —

* :class:`Counter` — monotonically increasing event counts
  (``solver.solves``, ``batch.cache_hits``);
* :class:`Gauge` — last-written values (``admission.running``);
* :class:`Histogram` — observed distributions with ``p50``/``p90``/``p99``
  quantiles (``solver.newton_iterations``, ``admission.decision_seconds``).

Everything is thread-safe — one lock *per instrument*, so threads
incrementing different metrics never contend on a shared registry lock; the
registry lock only guards instrument creation and whole-registry operations.
Like tracing, metrics are **disabled by default**: every instrument method
checks the registry's ``enabled`` flag first, so an instrumented hot path
pays one attribute check and nothing else when telemetry is off.

Snapshots are plain JSON-serialisable dicts and *mergeable*:
:meth:`MetricsRegistry.merge_snapshot` folds a worker process's snapshot into
an aggregator, which is how ``repro-map batch`` combines per-item worker
metrics into campaign totals.  Histograms keep a bounded sample reservoir
(oldest-half decimation once :data:`RESERVOIR_LIMIT` is hit) so unbounded
campaigns cannot grow memory without bound; ``count``/``sum``/``min``/``max``
stay exact.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
]

#: Per-histogram sample cap; beyond it every other retained sample is dropped
#: (quantiles stay approximate but stable, exact aggregates are unaffected).
RESERVOIR_LIMIT = 4096

#: Quantiles reported by every histogram snapshot.
QUANTILES = (0.5, 0.9, 0.99)


class Counter:
    """A monotonically increasing count; safe under concurrent increments."""

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"type": "counter", "value": self.value}


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: Optional[float] = None
        self._registry = registry
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"type": "gauge", "value": self.value}


class Histogram:
    """An observed distribution with exact aggregates and sampled quantiles."""

    __slots__ = ("name", "count", "sum", "min", "max", "samples", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self._registry = registry
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        value = float(value)
        with self._lock:
            self._observe_locked(value)

    def _observe_locked(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples.append(value)
        if len(self.samples) > RESERVOIR_LIMIT:
            # Decimate: keep every other sample, preserving the spread.
            self.samples = self.samples[::2]

    @staticmethod
    def _quantile_of(samples: List[float], q: float) -> Optional[float]:
        if not samples:
            return None
        ordered = sorted(samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def quantile(self, q: float) -> Optional[float]:
        """Sample quantile by linear interpolation (``None`` when empty)."""
        with self._lock:
            samples = list(self.samples)
        return self._quantile_of(samples, q)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count, total = self.count, self.sum
            minimum, maximum = self.min, self.max
            samples = list(self.samples)
        data: Dict[str, object] = {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
        }
        for q in QUANTILES:
            data[f"p{int(q * 100)}"] = self._quantile_of(samples, q)
        # Samples ride along so snapshots merge without losing quantiles.
        data["samples"] = samples
        return data


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of instruments; disabled (and write-free) by default."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.RLock()
        self._instruments: Dict[str, object] = {}

    # -- instrument access --------------------------------------------------
    def _instrument(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, self)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable state of every instrument, keyed by name."""
        with self._lock:
            return {
                name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())
            }

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram aggregates add; gauges take the incoming value
        (last write wins); histogram samples concatenate (re-capped by the
        reservoir limit).  Works regardless of this registry's ``enabled``
        flag — an aggregator may stay disabled for local instrumentation
        while still merging worker snapshots.
        """
        with self._lock:
            for name, data in snapshot.items():
                kind = str(data.get("type", ""))
                cls = _TYPES.get(kind)
                if cls is None:
                    continue
                instrument = self._instrument(name, cls)
                # Writers synchronise on the instrument lock, so merging must
                # too (the registry lock alone no longer excludes them).
                if kind == "counter":
                    with instrument._lock:
                        instrument.value += float(data.get("value", 0.0) or 0.0)
                elif kind == "gauge":
                    if data.get("value") is not None:
                        with instrument._lock:
                            instrument.value = float(data["value"])
                else:
                    count = int(data.get("count", 0))
                    if count == 0:
                        continue
                    with instrument._lock:
                        instrument.count += count
                        instrument.sum += float(data.get("sum", 0.0))
                        for bound, pick in (("min", min), ("max", max)):
                            incoming = data.get(bound)
                            if incoming is None:
                                continue
                            current = getattr(instrument, bound)
                            setattr(
                                instrument,
                                bound,
                                float(incoming)
                                if current is None
                                else pick(current, float(incoming)),
                            )
                        instrument.samples.extend(
                            float(v) for v in data.get("samples", [])
                        )
                        while len(instrument.samples) > RESERVOIR_LIMIT:
                            instrument.samples = instrument.samples[::2]

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


#: The process-global registry behind the module-level helpers.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)
